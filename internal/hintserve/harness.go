package hintserve

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/dot11"
	"repro/internal/hintproto"
)

// BenchHarness drives one shard's serve path synchronously, with no
// socket: prebuilt batches of realistic hint traffic are replayed
// through serveBatch. This is how the allocation budget of the hot path
// is proven (testing.AllocsPerRun measures the whole process, so the
// path under test must run alone on the calling goroutine) and how the
// per-batch microbenchmark gets a stable, network-free number.
//
// The replayed traffic cycles every client through both movement
// states, so the toggle path (SetMoving plus the activated adapter's
// Reset) is part of the measured loop, not just the steady state.
type BenchHarness struct {
	sh      *shard
	batches []*batch
	idx     int
	now     time.Duration
	packets int // packets per full cycle
}

// NewBenchHarness builds a harness serving the given number of
// simulated clients. Each full cycle sends two frames per client — one
// moving, one static — as a mix of movement-bit-only data frames,
// trailer-bearing data frames, and standalone hint frames.
func NewBenchHarness(cfg Config, clients int) (*BenchHarness, error) {
	if clients <= 0 {
		return nil, fmt.Errorf("hintserve: harness needs at least one client, got %d", clients)
	}
	cfg = cfg.withDefaults()
	cfg.Shards = 1
	if cfg.ClientsPerShard < 2*clients {
		cfg.ClientsPerShard = 2 * clients
	}
	sh := newShard(0, nil, cfg)

	total := 2 * clients
	nbatches := (total + cfg.BatchSize - 1) / cfg.BatchSize
	h := &BenchHarness{sh: sh, packets: total}

	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}

	j := 0
	for bi := 0; bi < nbatches; bi++ {
		b := newBatch(cfg.BatchSize, cfg.MaxPacket)
		for b.n < cfg.BatchSize && j < total {
			c := j % clients
			moving := j < clients
			f := &dot11.Frame{
				Type:    dot11.TypeData,
				Seq:     uint16(j),
				Src:     dot11.AddrFromInt(2 + c),
				Dst:     apAddr,
				Payload: payload,
			}
			hintproto.SetMovementBit(f, moving)
			hs := []hintproto.Hint{
				{Type: hintproto.HintMovement, Value: hintproto.DecodeValue(hintproto.HintMovement, hintproto.EncodeValue(hintproto.HintMovement, b2f(moving)))},
				{Type: hintproto.HintSpeed, Value: 1.5},
				{Type: hintproto.HintHeading, Value: float64((c * 45) % 360)},
			}
			switch {
			case j%16 == 5:
				// Standalone hint frame: ingested, never acked.
				hf, err := hintproto.NewHintFrame(f.Src, apAddr, hs)
				if err != nil {
					return nil, err
				}
				hf.Seq = f.Seq
				hintproto.SetMovementBit(hf, moving)
				f = hf
			case j%2 == 0:
				// Piggy-backed TLV trailer on the data frame.
				if err := hintproto.AppendTrailer(f, hs); err != nil {
					return nil, err
				}
			}
			wire, err := f.Marshal()
			if err != nil {
				return nil, err
			}
			slot := b.slotBuf(b.n)
			copy(slot, wire)
			b.bufs[b.n] = slot[:len(wire)]
			b.srcs[b.n] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(c >> 8), byte(c)}), 9)
			b.n++
			j++
		}
		h.batches = append(h.batches, b)
	}

	// Warm pass: admit every client, grow the hint scratch, and let each
	// adapter allocate its observation ring. After this, serving is
	// allocation-free.
	for range h.batches {
		h.ServeBatch()
	}
	return h, nil
}

// ServeBatch replays the next prebuilt batch through the shard's serve
// path, advancing the serve clock, and reports the packet and ACK
// counts of that batch.
func (h *BenchHarness) ServeBatch() (packets, acks int) {
	b := h.batches[h.idx]
	h.idx = (h.idx + 1) % len(h.batches)
	h.now += 500 * time.Microsecond
	b.resetOut()
	h.sh.serveBatch(b, h.now)
	return b.n, len(b.acks)
}

// CyclePackets reports how many packets one full replay cycle serves.
func (h *BenchHarness) CyclePackets() int { return h.packets }

// NumBatches reports how many prebuilt batches the harness cycles over.
func (h *BenchHarness) NumBatches() int { return len(h.batches) }

// Stats exposes the underlying shard's counters.
func (h *BenchHarness) Stats() Stats { return h.sh.stats.snapshot() }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
