package sensorhints_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenDir holds one file per registered experiment: exactly what
// `hintbench -scale 0.2 -seed 42 <id>` prints.
var goldenDir = filepath.Join("testdata", "golden")

// TestGoldenReports pins every registered experiment's report against
// recorded output, byte for byte. The determinism tests compare one
// execution mode with another, so a change that shifts every mode at
// once (an extra RNG draw, a reordered sum) passes them all; it cannot
// pass this. Regenerating a file with -update is a declared behaviour
// change, never part of a refactor.
func TestGoldenReports(t *testing.T) {
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	registered := map[string]bool{}
	for _, exp := range experiments.All() {
		registered[exp.ID] = true
		t.Run(exp.ID, func(t *testing.T) {
			got := exp.Run(experiments.Config{Scale: 0.2, Seed: 42}).String() + "\n"
			path := filepath.Join(goldenDir, exp.ID+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("registered experiment has no golden report (go test -run Golden -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("report differs from %s at %s", path, firstDiff(string(want), got))
			}
		})
	}
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if id := strings.TrimSuffix(filepath.Base(f), ".txt"); !registered[id] {
			t.Errorf("golden report %s names no registered experiment", f)
		}
	}
}

// firstDiff locates the first differing line of two reports.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  want %s\n  got  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line %d: one report is a prefix of the other", min(len(w), len(g))+1)
}
