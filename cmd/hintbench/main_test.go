package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestNonFiniteScaleRefused: a NaN or infinite -scale would run every
// experiment at its minimum sizes and pass its checks, and a zero or
// negative one would silently run at paper scale, so each is a usage
// error (exit 2) that runs nothing.
func TestNonFiniteScaleRefused(t *testing.T) {
	for _, scale := range []string{"NaN", "+Inf", "-Inf", "0", "-1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-scale", scale, "-seed", "42", "fig3-1"}, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "invalid scale") {
			t.Errorf("-scale %s: exit %d, stdout %q, stderr %q; want exit 2, no report, an invalid-scale error",
				scale, code, stdout.String(), stderr.String())
		}
	}
}

// TestRunPrintsReport: a run prints exactly the experiment's report and
// exits 0 when its checks pass.
func TestRunPrintsReport(t *testing.T) {
	exp, ok := experiments.ByID("fig2-2")
	if !ok {
		t.Fatal("fig2-2 not registered")
	}
	want := exp.Run(experiments.Config{Scale: 0.1, Seed: 42}).String() + "\n"
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "0.1", "fig2-2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if stdout.String() != want {
		t.Errorf("output differs from Runner.Run:\n--- want ---\n%s--- got ---\n%s", want, stdout.String())
	}
}
