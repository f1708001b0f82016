package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current code")

// metricsGolden is the event engine's recorded Metrics for
// goldenScenarios.
var metricsGolden = filepath.Join("testdata", "metrics.golden")

// goldenScenarios are the runs the layer golden pins: every
// differential scenario, each again with the shared medium on, and a
// dense contended hotspot shaped like city-contend, whose results
// depend on the exact (at, seq) order in which clients take the medium.
func goldenScenarios() []Scenario {
	var scs []Scenario
	for _, sc := range testScenarios() {
		scs = append(scs, sc)
		sc.Name += "-contended"
		sc.Contention = true
		scs = append(scs, sc)
	}
	return append(scs, Scenario{
		Name: "hotspot-contended",
		Grid: APGrid{Side: 4, Spacing: 110},
		Herds: []Herd{{
			Name: "crowd", Clients: 800,
			Mobility: MobilityProfile{SpeedMps: 1.4, SpeedJitter: 0.3, MeanSegment: 60},
			Traffic:  TrafficMix{{Name: "web", Bytes: 1400, Interval: 150 * time.Millisecond}},
		}},
		Duration:   8 * time.Second,
		Contention: true,
		Seed:       31,
	})
}

// TestMetricsGolden pins the event engine's output below the reports,
// which print %.4g and so cannot see a drift of a few counts: every
// Metrics field, the rate histogram and the event count of each golden
// scenario. A change to the engine's internals must leave this
// byte-identical; regenerating it with -update is a declared behaviour
// change, never part of a refactor.
func TestMetricsGolden(t *testing.T) {
	var sb strings.Builder
	for _, sc := range goldenScenarios() {
		fmt.Fprintf(&sb, "%s %+v\n", sc.Name, Run(sc))
	}
	got := sb.String()

	if *update {
		if err := os.MkdirAll(filepath.Dir(metricsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricsGolden)
	if err != nil {
		t.Fatalf("no recorded metrics (go test -run MetricsGolden -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("metrics differ from %s at line %d:\n got  %s\n want %s", metricsGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("metrics differ from %s: %d lines, want %d", metricsGolden, len(gl), len(wl))
	}
}
