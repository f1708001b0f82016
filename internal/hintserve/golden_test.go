package hintserve

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/serve_path.golden from the current code")

// servePathGolden is the serve path's recorded output for the
// BenchHarness packet tape.
var servePathGolden = filepath.Join("testdata", "serve_path.golden")

// TestServePathGolden pins the serve path layer by layer below the
// socket: the ACK bytes (and their destinations) that two full
// BenchHarness cycles of 256 clients produce under the default config,
// and the shard's counters after them. A change to how packets reach a
// shard must leave this byte-identical; regenerating it with -update is
// a declared behaviour change of the serve path, never part of a
// refactor.
func TestServePathGolden(t *testing.T) {
	h, err := NewBenchHarness(Config{}, 256)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < 2*h.NumBatches(); i++ {
		b := h.batches[h.idx]
		packets, acks := h.ServeBatch()
		fmt.Fprintf(&sb, "batch %d packets=%d acks=%d\n", i, packets, acks)
		for _, a := range b.acks {
			fmt.Fprintf(&sb, "%s %x\n", a.dst, b.out[a.off:a.off+a.n])
		}
	}
	st := h.Stats()
	fmt.Fprintf(&sb, "packets=%d bad=%d data=%d hints=%d switches=%d admitted=%d evicted=%d rejected=%d batches=%d live=%d\n",
		st.Packets, st.BadFrames, st.DataFrames, st.Hints, st.Switches,
		st.Admitted, st.Evicted, st.Rejected, st.Batches, st.LiveClients)
	got := sb.String()

	if *update {
		if err := os.MkdirAll(filepath.Dir(servePathGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(servePathGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(servePathGolden)
	if err != nil {
		t.Fatalf("no recorded serve path (go test -run ServePathGolden -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("serve path differs from %s at line %d:\n got  %s\n want %s", servePathGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("serve path differs from %s: %d lines, want %d", servePathGolden, len(gl), len(wl))
	}
}
