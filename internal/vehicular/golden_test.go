package vehicular

import (
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/links.golden from the current code")

// linksGolden is the layer's recorded output for every goldenMobility
// configuration.
var linksGolden = filepath.Join("testdata", "links.golden")

// sec51Mobility is sec5-1's fleet: 250 vehicles, 500 ms steps, traffic
// speed jitter 0.5 (internal/experiments).
func sec51Mobility(seed int64) MobilityConfig {
	cfg := DefaultMobilityConfig(seed)
	cfg.Vehicles = 250
	cfg.Step = 500 * time.Millisecond
	cfg.SpeedJitter = 0.5
	return cfg
}

// goldenMobility is every fleet the golden pins, with the horizon its
// links are collected over: Table 5.1's networks at two seeds, the same
// on a four-direction grid, and sec5-1's denser, finer-stepped fleet.
var goldenMobility = []struct {
	name    string
	cfg     MobilityConfig
	horizon time.Duration
}{
	{"default-9", DefaultMobilityConfig(9), 300 * time.Second},
	{"default-42", DefaultMobilityConfig(42), 300 * time.Second},
	{"grid4-9", withRoadHeadings(DefaultMobilityConfig(9), 4), 300 * time.Second},
	{"grid4-42", withRoadHeadings(DefaultMobilityConfig(42), 4), 300 * time.Second},
	{"sec5-1-42", sec51Mobility(42), 150 * time.Second},
}

func withRoadHeadings(cfg MobilityConfig, n int) MobilityConfig {
	cfg.RoadHeadings = n
	return cfg
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digest counts the rows written to it and keeps their CRC32C.
type digest struct {
	n   int
	crc uint32
}

func (d *digest) row(format string, args ...any) {
	d.n++
	d.crc = crc32.Update(d.crc, castagnoli, []byte(fmt.Sprintf(format+"\n", args...)))
}

// TestLinksGolden pins the vehicular layer below the Table 5.1 and
// sec5-1 reports, which print medians: every LinkRecord field that
// CollectLinks returns for each goldenMobility fleet (heading
// difference as float64 bits), RouteLifetimeTrial's lifetime bits and
// ok for both selectors over 16 seeds on sec5-1's configuration, and
// every vehicle's position and heading bits after 120 steps. Long
// sections are a row count and a CRC32C of the rows. A change to the
// mobility model or link collection must leave this byte-identical;
// regenerating it with -update is a declared behaviour change, never
// part of a refactor.
func TestLinksGolden(t *testing.T) {
	var sb strings.Builder
	for _, g := range goldenMobility {
		var d digest
		for _, l := range CollectLinks(NewSimulation(g.cfg), g.horizon) {
			d.row("%d %d %#016x %d %d", l.A, l.B, math.Float64bits(l.StartHeadingDiff), l.Start, l.End)
		}
		fmt.Fprintf(&sb, "links %s horizon=%v n=%d crc32c=%#08x\n", g.name, g.horizon, d.n, d.crc)
	}
	scfg := StabilityConfig{Mobility: sec51Mobility(0), Hops: 3, Horizon: 150 * time.Second}
	for _, sel := range []RouteSelector{CTESelector{}, RandomSelector{}} {
		for seed := int64(1); seed <= 16; seed++ {
			life, ok := RouteLifetimeTrial(scfg, sel, seed)
			fmt.Fprintf(&sb, "route %s seed=%d life=%#016x (%v s) ok=%v\n", sel.Name(), seed, math.Float64bits(life), life, ok)
		}
	}
	for _, g := range goldenMobility {
		sim := NewSimulation(g.cfg)
		for i := 0; i < 120; i++ {
			sim.Step()
		}
		var d digest
		for _, v := range sim.Vehicles() {
			d.row("%d %#016x %#016x %#016x", v.ID, math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.HeadingDeg))
		}
		fmt.Fprintf(&sb, "vehicles %s steps=120 n=%d crc32c=%#08x\n", g.name, d.n, d.crc)
	}
	got := sb.String()

	if *update {
		if err := os.MkdirAll(filepath.Dir(linksGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(linksGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(linksGolden)
	if err != nil {
		t.Fatalf("no recorded links (go test -run LinksGolden -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d:\n got  %s\n want %s", linksGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output differs from %s: %d lines, want %d", linksGolden, len(gl), len(wl))
	}
}
