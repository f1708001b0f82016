package cluster

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// Deterministic fault injection for the transport layer. A FaultPlan is
// a seeded schedule of frame-level faults — drop, duplicate, corrupt,
// delay, partition — applied on the *send* side of a connection, where
// the exact bytes of the outgoing frame are known. Determinism comes
// from splitmix64: each connection index draws its own RNG from the
// plan's seed, so the same plan against the same traffic pattern
// produces the same fault sequence, and a failing chaos run can be
// replayed from its seed alone.
//
// The faults model a hostile byte stream, and the checksummed frame
// layer is what converts each of them into a *detectable* event:
//
//   - corrupt flips a payload byte after the CRC trailer is computed —
//     the receiver fails the trailer check on that frame;
//   - drop advances the sender's rolling chain without emitting the
//     frame — the receiver's chain no longer matches at the *next*
//     frame (heartbeat pings bound how long that takes);
//   - dup emits the frame twice — the second copy's trailer continues a
//     chain the receiver has already advanced past, so it mismatches;
//   - delay stalls the sender, exercising read deadlines and heartbeat
//     misses without breaking the chain;
//   - partition closes the connection outright, exercising dead-peer
//     salvage and worker reconnect.
//
// All chain-breaking faults kill the connection (the peer must drop a
// conn whose chain broke), so MaxKills caps them globally across the
// plan — a chaos run converges instead of eating the retry budget.

// FaultPlan is one seeded schedule of connection faults. Probabilities
// are per-frame and evaluated in the order corrupt, drop, dup, delay;
// the first match wins. The zero value injects nothing.
type FaultPlan struct {
	Seed    int64   // root seed; each conn derives its own stream from it
	Corrupt float64 // probability a frame's payload is corrupted in flight
	Drop    float64 // probability a frame is silently dropped
	Dup     float64 // probability a frame is delivered twice
	Delay   float64 // probability a frame is delayed by DelayBy
	DelayBy time.Duration

	// PartitionAfter, when > 0, hard-closes a faulted connection once it
	// has carried that many frames (once per conn index, so a
	// reconnected worker's fresh conn starts clean).
	PartitionAfter int

	// Conns, when > 0, limits faults to the first Conns accepted
	// connections; later conns (including reconnects) run clean. 0
	// faults every conn.
	Conns int

	// MaxKills, when > 0, caps the total number of connection-killing
	// faults (corrupt, drop, dup, partition) across the whole plan. 0
	// means unlimited.
	MaxKills int

	conns atomic.Int64 // connections handed out so far
	kills atomic.Int64 // connection-killing faults spent so far
}

// handshakeExempt is how many leading frames per connection run clean:
// challenge/hello (and the first reply) must survive, or chaos reduces
// to "nothing ever connects" and proves nothing.
const handshakeExempt = 3

// conn allocates the fault schedule for the next connection, or nil if
// that connection runs clean under this plan.
func (p *FaultPlan) conn() *ConnFaults {
	idx := int(p.conns.Add(1)) - 1
	if p.Conns > 0 && idx >= p.Conns {
		return nil
	}
	seed := parallel.NewSeedStream(p.Seed).Derive("chaos").Seed(idx)
	return &ConnFaults{plan: p, rng: parallel.NewRNG(seed)}
}

// NextConn allocates the fault schedule for the next connection — the
// worker-side (DialOptions.Wrap + InjectFaults) counterpart of wrapping
// a listener with WithChaos.
func (p *FaultPlan) NextConn() *ConnFaults { return p.conn() }

// takeKill spends one unit of the plan's kill budget; false means the
// budget is exhausted and the fault must not fire.
func (p *FaultPlan) takeKill() bool {
	if p.MaxKills <= 0 {
		return true
	}
	for {
		n := p.kills.Load()
		if n >= int64(p.MaxKills) {
			return false
		}
		if p.kills.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// ConnFaults is one connection's slice of a FaultPlan: a private RNG
// and frame counter. It is consulted from inside streamConn.Send under
// the send mutex, so it needs no locking of its own.
type ConnFaults struct {
	plan        *FaultPlan
	rng         parallel.RNG
	frames      int
	partitioned bool
}

type faultKind int

const (
	faultNone faultKind = iota
	faultCorrupt
	faultDrop
	faultDup
	faultPartition
)

// next decides the fate of the connection's next outgoing frame and the
// delay (if any) to apply before sending it.
func (f *ConnFaults) next() (faultKind, time.Duration) {
	f.frames++
	if f.frames <= handshakeExempt {
		return faultNone, 0
	}
	p := f.plan
	if p.PartitionAfter > 0 && !f.partitioned && f.frames > p.PartitionAfter {
		f.partitioned = true
		if p.takeKill() {
			return faultPartition, 0
		}
	}
	// One draw decides the frame's fate via cumulative thresholds, so
	// the RNG consumption per frame is fixed and the schedule replays
	// exactly.
	u := f.rng.Float64()
	var delay time.Duration
	switch {
	case u < p.Corrupt:
		if p.takeKill() {
			return faultCorrupt, 0
		}
	case u < p.Corrupt+p.Drop:
		if p.takeKill() {
			return faultDrop, 0
		}
	case u < p.Corrupt+p.Drop+p.Dup:
		if p.takeKill() {
			return faultDup, 0
		}
	case u < p.Corrupt+p.Drop+p.Dup+p.Delay:
		delay = p.DelayBy
	}
	return faultNone, delay
}

// InjectFaults attaches a fault schedule to a connection. It returns
// false when f is nil or when c is not a conn this package's transports
// made (a wrapper around one, say).
func InjectFaults(c Conn, f *ConnFaults) bool {
	sc, ok := c.(*streamConn)
	if f == nil || !ok {
		return false
	}
	sc.wg.Lock()
	sc.faults = f
	sc.wg.Unlock()
	return true
}

// WithChaos wraps a transport so every accepted connection is subjected
// to the plan. The same plan value can simultaneously drive worker-side
// wrapping (DialOptions.Wrap) — the conn index sequence is shared.
func WithChaos(t Transport, p *FaultPlan) Transport {
	if p == nil {
		return t
	}
	return &faultTransport{inner: t, plan: p}
}

type faultTransport struct {
	inner Transport
	plan  *FaultPlan
}

func (t *faultTransport) Accept() (Conn, error) {
	c, err := t.inner.Accept()
	if err != nil {
		return c, err
	}
	InjectFaults(c, t.plan.conn())
	return c, nil
}

func (t *faultTransport) Close() error { return t.inner.Close() }

// sendFaulty is streamConn.Send's detour when a fault schedule is
// attached: called under the send mutex with the deadline already
// armed. Whatever happens to the bytes, the sender's rolling chain
// advances as if the frame was sent cleanly — that is what makes drops
// and duplicates visible to the receiver.
func (c *streamConn) sendFaulty(payload []byte) error {
	kind, delay := c.faults.next()
	if delay > 0 {
		time.Sleep(delay)
	}
	switch kind {
	case faultDrop:
		c.wsum = stats.ChainSum(c.wsum, payload)
		return nil
	case faultPartition:
		c.Close()
		return fmt.Errorf("cluster: injected partition: %w", net.ErrClosed)
	case faultCorrupt:
		frame, sum, err := stats.AppendFrameSum(nil, payload, c.wsum)
		if err != nil {
			return err
		}
		// Flip one bit past the length prefix (payload or trailer): the
		// receiver must catch it by checksum, not by framing.
		off := stats.FrameHeaderLen + int(c.rngOff(len(frame)-stats.FrameHeaderLen))
		frame[off] ^= 0x80
		c.wsum = sum
		if _, err := c.w.Write(frame); err != nil {
			return err
		}
		return c.w.Flush()
	case faultDup:
		frame, sum, err := stats.AppendFrameSum(nil, payload, c.wsum)
		if err != nil {
			return err
		}
		c.wsum = sum
		for range 2 {
			if _, err := c.w.Write(frame); err != nil {
				return err
			}
		}
		return c.w.Flush()
	default:
		sum, err := stats.WriteFrameSum(c.w, payload, c.wsum)
		if err != nil {
			return err
		}
		c.wsum = sum
		return c.w.Flush()
	}
}

// rngOff draws a deterministic offset in [0, n) from the conn's fault
// schedule RNG.
func (c *streamConn) rngOff(n int) uint64 {
	if n <= 0 {
		return 0
	}
	return c.faults.rng.Uint64() % uint64(n)
}

// ParseFaultPlan parses the -chaos-plan flag grammar: a comma-separated
// list of key=value settings. Probabilities are in [0,1]; delay takes
// prob:duration.
//
//	drop=0.01,dup=0.01,corrupt=0.02,delay=0.1:2ms,partition=40,conns=2,kills=3
//
// An empty spec yields a plan that injects nothing (but still counts
// conns), which is useful only for testing the plumbing.
func ParseFaultPlan(spec string, seed int64) (*FaultPlan, error) {
	p := &FaultPlan{Seed: seed}
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return nil, fmt.Errorf("cluster: chaos plan field %q is not key=value", field)
		}
		switch key {
		case "drop", "dup", "corrupt":
			prob, err := parseProb(key, val)
			if err != nil {
				return nil, err
			}
			switch key {
			case "drop":
				p.Drop = prob
			case "dup":
				p.Dup = prob
			case "corrupt":
				p.Corrupt = prob
			}
		case "delay":
			probStr, durStr, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("cluster: chaos delay wants prob:duration, got %q", val)
			}
			prob, err := parseProb(key, probStr)
			if err != nil {
				return nil, err
			}
			dur, err := time.ParseDuration(durStr)
			if err != nil || dur <= 0 {
				return nil, fmt.Errorf("cluster: chaos delay duration %q invalid", durStr)
			}
			p.Delay, p.DelayBy = prob, dur
		case "partition", "conns", "kills":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("cluster: chaos %s wants a non-negative integer, got %q", key, val)
			}
			switch key {
			case "partition":
				p.PartitionAfter = n
			case "conns":
				p.Conns = n
			case "kills":
				p.MaxKills = n
			}
		default:
			return nil, fmt.Errorf("cluster: unknown chaos plan key %q", key)
		}
	}
	if sum := p.Corrupt + p.Drop + p.Dup + p.Delay; sum > 1 {
		return nil, fmt.Errorf("cluster: chaos probabilities sum to %g > 1", sum)
	}
	return p, nil
}

func parseProb(key, val string) (float64, error) {
	prob, err := strconv.ParseFloat(val, 64)
	if err != nil || prob < 0 || prob > 1 {
		return 0, fmt.Errorf("cluster: chaos %s wants a probability in [0,1], got %q", key, val)
	}
	return prob, nil
}
