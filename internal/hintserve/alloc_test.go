package hintserve

import (
	"testing"
)

// TestServeBatchZeroAlloc is the allocation budget of the serving
// plane: after the warm-up pass (admissions, adapter rings, scratch
// growth), the per-packet decode→ingest→adapt→ack path must not touch
// the heap at all. The harness replays realistic traffic — movement
// bits, TLV trailers, standalone hint frames, movement toggles — so
// every steady-state branch of servePacket is inside the measured loop.
func TestServeBatchZeroAlloc(t *testing.T) {
	h, err := NewBenchHarness(Config{BatchSize: 64}, 256)
	if err != nil {
		t.Fatal(err)
	}
	// One extra full cycle beyond the constructor's warm pass, so any
	// lazily allocated state (observation rings on the first Observe
	// after a toggle, scratch regrowth) is settled.
	for i := 0; i < h.NumBatches(); i++ {
		h.ServeBatch()
	}
	allocs := testing.AllocsPerRun(200, func() {
		h.ServeBatch()
	})
	if allocs != 0 {
		t.Fatalf("serve path allocates %.1f times per batch, want 0", allocs)
	}
	st := h.Stats()
	if st.BadFrames != 0 {
		t.Fatalf("harness traffic must decode cleanly, got %d bad frames", st.BadFrames)
	}
	if st.DataFrames == 0 || st.Hints == 0 || st.Switches == 0 {
		t.Fatalf("harness must exercise data, hints and toggles: %s", st)
	}
}

// TestRouteTakeZeroAlloc is the allocation budget of the reader→shard
// handoff: copying a datagram into its shard's fill batch, posting the
// wake token and the shard's swap reuse the shard's two batches and
// touch the heap not at all.
func TestRouteTakeZeroAlloc(t *testing.T) {
	s := newIdleServer(t, Config{Shards: 1})
	sh := s.shards[0]
	pkt := dataFrame(t, 9, 0)
	handoff := func() {
		s.route(pkt, testSrc)
		s.route(pkt, testSrc)
		<-sh.wake
		sh.take().reset()
	}
	handoff()
	if allocs := testing.AllocsPerRun(200, handoff); allocs != 0 {
		t.Fatalf("route plus take allocates %.1f times per handoff, want 0", allocs)
	}
}
