package experiments

import (
	"reflect"
	"testing"

	"repro/internal/phy"
)

// TestFrameSizes covers the warm-list derivation: declared sizes win,
// undeclared runners and unknown ids fall back to the phy default, and
// the union is sorted and deduplicated.
func TestFrameSizes(t *testing.T) {
	if got := Default.FrameSizes("fig3-7"); !reflect.DeepEqual(got, []int{phy.DefaultFrameBytes}) {
		t.Errorf("FrameSizes(fig3-7) = %v, want [%d]", got, phy.DefaultFrameBytes)
	}
	if got := Default.FrameSizes("fig2-2", "no-such-experiment"); !reflect.DeepEqual(got, []int{phy.DefaultFrameBytes}) {
		t.Errorf("FrameSizes with fallback ids = %v, want [%d]", got, phy.DefaultFrameBytes)
	}
	whole := Default.FrameSizes()
	if len(whole) == 0 {
		t.Fatal("FrameSizes() over the registry is empty")
	}
	for i := 1; i < len(whole); i++ {
		if whole[i] <= whole[i-1] {
			t.Fatalf("FrameSizes() = %v is not sorted and deduplicated", whole)
		}
	}

	// A synthetic runner with declared sizes unions with the defaults —
	// on a private registry seeded with the relevant Default entries,
	// since Default is append-only.
	reg := NewRegistry()
	f37, _ := Default.ByID("fig3-7")
	reg.MustRegister(f37)
	reg.MustRegister(Runner{ID: "frames-test-synth", Frames: []int{256, 1500}, Run: func(Config) *Report { return nil }})
	got := Default.FrameSizes("frames-test-synth", "fig3-7")
	if !reflect.DeepEqual(got, []int{phy.DefaultFrameBytes}) {
		// Default has no synth runner: unknown ids fall back.
		t.Errorf("Default FrameSizes(synth, fig3-7) = %v, want [%d]", got, phy.DefaultFrameBytes)
	}
	got = reg.FrameSizes("frames-test-synth", "fig3-7")
	want := []int{256, phy.DefaultFrameBytes, 1500}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reg.FrameSizes(synth, fig3-7) = %v, want %v", got, want)
	}
}

// TestRegistry covers the exported Registry API: validation, duplicate
// rejection, tag lookup, and id ordering.
func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	noop := func(Config) *Report { return nil }
	if err := reg.Register(Runner{ID: "", Run: noop}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := reg.Register(Runner{ID: "x"}); err == nil {
		t.Error("nil Run accepted")
	}
	reg.MustRegister(Runner{ID: "b", Run: noop, Tags: []string{"t1"}})
	reg.MustRegister(Runner{ID: "a", Run: noop, Tags: []string{"t1", "t2"}})
	if err := reg.Register(Runner{ID: "a", Run: noop}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if ids := reg.IDs(); !reflect.DeepEqual(ids, []string{"a", "b"}) {
		t.Errorf("IDs() = %v", ids)
	}
	if ts := reg.Tags(); !reflect.DeepEqual(ts, []string{"t1", "t2"}) {
		t.Errorf("Tags() = %v", ts)
	}
	if rs := reg.ByTag("t1"); len(rs) != 2 || rs[0].ID != "a" {
		t.Errorf("ByTag(t1) = %v", rs)
	}
	if rs := reg.ByTag("t2"); len(rs) != 1 || rs[0].ID != "a" {
		t.Errorf("ByTag(t2) = %v", rs)
	}
	if rs := reg.ByTag("nope"); len(rs) != 0 {
		t.Errorf("ByTag(nope) = %v", rs)
	}

	// Every paper experiment in Default is tagged.
	for _, r := range Default.All() {
		if len(r.Tags) == 0 {
			t.Errorf("experiment %q has no tags", r.ID)
		}
	}
}
