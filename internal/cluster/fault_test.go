package cluster

import (
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	istats "repro/internal/stats"
)

// pipeConns builds a connected streamConn pair over net.Pipe (the same
// plumbing the in-process transport uses).
func pipeConns() (*streamConn, *streamConn) {
	a, b := net.Pipe()
	return newStreamConn(a), newStreamConn(b)
}

// drive sends n hello frames from c while the other side receives until
// an error; used to walk a fault schedule deterministically.
func drive(t *testing.T, send, recv Conn, n int) (sendErrs []error, recvErr error, received int) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := recv.Recv(); err != nil {
				recvErr = err
				return
			}
			received++
		}
	}()
	for i := 0; i < n; i++ {
		if err := send.Send(&Hello{Version: ProtoVersion, Name: "x"}); err != nil {
			sendErrs = append(sendErrs, err)
		}
	}
	send.Close()
	<-done
	return sendErrs, recvErr, received
}

// TestFaultScheduleDeterministic: two ConnFaults carved from plans with
// the same seed must produce the identical fault sequence.
func TestFaultScheduleDeterministic(t *testing.T) {
	mk := func() []faultKind {
		p := &FaultPlan{Seed: 42, Corrupt: 0.2, Drop: 0.2, Dup: 0.2, Delay: 0.2, DelayBy: time.Nanosecond}
		f := p.conn()
		kinds := make([]faultKind, 0, 64)
		for i := 0; i < 64; i++ {
			k, _ := f.next()
			kinds = append(kinds, k)
		}
		return kinds
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at frame %d: %v vs %v", i, a[i], b[i])
		}
	}
	// The first handshakeExempt frames must always run clean.
	for i := 0; i < handshakeExempt; i++ {
		if a[i] != faultNone {
			t.Errorf("frame %d faulted during the handshake exemption", i)
		}
	}
}

// TestCorruptFaultBreaksChecksum: a corrupted frame must surface at the
// receiver as stats.ErrChecksum (and ErrCodec), not as a decode error
// or a silent success.
func TestCorruptFaultBreaksChecksum(t *testing.T) {
	cs, cr := pipeConns()
	p := &FaultPlan{Seed: 1, Corrupt: 1}
	InjectFaults(cs, p.conn())
	_, recvErr, received := drive(t, cs, cr, handshakeExempt+1)
	if received != handshakeExempt {
		t.Errorf("received %d clean frames, want %d", received, handshakeExempt)
	}
	if !errors.Is(recvErr, istats.ErrChecksum) {
		t.Errorf("receiver error %v, want stats.ErrChecksum", recvErr)
	}
	if !errors.Is(recvErr, istats.ErrCodec) {
		t.Errorf("receiver error %v does not wrap stats.ErrCodec", recvErr)
	}
}

// TestDropFaultBreaksChainAtNextFrame: a dropped frame is invisible at
// drop time but must break the rolling chain at the next delivered
// frame.
func TestDropFaultBreaksChainAtNextFrame(t *testing.T) {
	cs, cr := pipeConns()
	p := &FaultPlan{Seed: 1, Drop: 1, MaxKills: 1} // exactly one drop, then clean
	InjectFaults(cs, p.conn())
	_, recvErr, received := drive(t, cs, cr, handshakeExempt+2)
	if received != handshakeExempt {
		t.Errorf("received %d clean frames, want %d", received, handshakeExempt)
	}
	if !errors.Is(recvErr, istats.ErrChecksum) {
		t.Errorf("receiver error %v, want stats.ErrChecksum (the frame after the drop)", recvErr)
	}
}

// TestDupFaultBreaksChainAtSecondCopy: the duplicated copy's trailer
// continues a chain the receiver already advanced past.
func TestDupFaultBreaksChainAtSecondCopy(t *testing.T) {
	cs, cr := pipeConns()
	p := &FaultPlan{Seed: 1, Dup: 1, MaxKills: 1}
	InjectFaults(cs, p.conn())
	_, recvErr, received := drive(t, cs, cr, handshakeExempt+1)
	if received != handshakeExempt+1 {
		t.Errorf("received %d frames, want %d (the first copy is chain-valid)", received, handshakeExempt+1)
	}
	if !errors.Is(recvErr, istats.ErrChecksum) {
		t.Errorf("receiver error %v, want stats.ErrChecksum (the duplicate copy)", recvErr)
	}
}

// TestPartitionFaultClosesConn: the partition fault severs the conn;
// the sender sees a typed closed-network error and the receiver EOF.
func TestPartitionFaultClosesConn(t *testing.T) {
	cs, cr := pipeConns()
	p := &FaultPlan{Seed: 1, PartitionAfter: handshakeExempt}
	InjectFaults(cs, p.conn())
	sendErrs, _, received := drive(t, cs, cr, handshakeExempt+1)
	if received != handshakeExempt {
		t.Errorf("received %d frames before the partition, want %d", received, handshakeExempt)
	}
	if len(sendErrs) != 1 || !errors.Is(sendErrs[0], net.ErrClosed) {
		t.Errorf("sender errors %v, want exactly one wrapping net.ErrClosed", sendErrs)
	}
}

// TestMaxKillsCapsChainBreaks: with the kill budget at zero remaining,
// chain-breaking faults stop firing and traffic flows clean.
func TestMaxKillsCapsChainBreaks(t *testing.T) {
	p := &FaultPlan{Seed: 9, Corrupt: 1, MaxKills: 2}
	f := p.conn()
	kills := 0
	for i := 0; i < 100; i++ {
		if k, _ := f.next(); k != faultNone {
			kills++
		}
	}
	if kills != 2 {
		t.Errorf("%d chain-breaking faults fired, want exactly MaxKills=2", kills)
	}
}

// TestFaultPlanConnLimit: conns beyond the plan's limit run clean (nil
// schedule), which is what lets reconnected workers finish a chaos run.
func TestFaultPlanConnLimit(t *testing.T) {
	p := &FaultPlan{Seed: 1, Corrupt: 1, Conns: 2}
	if p.conn() == nil || p.conn() == nil {
		t.Fatal("first two conns should be faulted")
	}
	if p.conn() != nil {
		t.Error("third conn should run clean under Conns: 2")
	}
}

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("drop=0.01,dup=0.02,corrupt=0.03,delay=0.1:2ms,partition=40,conns=2,kills=3", 7)
	if err != nil {
		t.Fatalf("ParseFaultPlan: %v", err)
	}
	if p.Seed != 7 || p.Drop != 0.01 || p.Dup != 0.02 || p.Corrupt != 0.03 ||
		p.Delay != 0.1 || p.DelayBy != 2*time.Millisecond ||
		p.PartitionAfter != 40 || p.Conns != 2 || p.MaxKills != 3 {
		t.Errorf("parsed plan %+v does not match the spec", p)
	}
	for _, bad := range []string{
		"drop",            // not key=value
		"drop=1.5",        // probability out of range
		"drop=x",          // not a number
		"delay=0.1",       // missing duration
		"delay=0.1:-2ms",  // non-positive duration
		"partition=-1",    // negative count
		"teleport=0.5",    // unknown key
		"drop=0.6,dup=.6", // probabilities over 1
	} {
		if _, err := ParseFaultPlan(bad, 1); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", bad)
		}
	}
	if p, err := ParseFaultPlan("", 1); err != nil || p == nil {
		t.Errorf("empty spec should yield an inert plan, got %v, %v", p, err)
	}
}

// TestReadDeadlineUnsticksReader: with a read timeout armed, a silent
// peer surfaces as a deadline error instead of blocking forever — the
// conversion that turns a hung worker into a retriable event.
func TestReadDeadlineUnsticksReader(t *testing.T) {
	ca, cb := pipeConns()
	defer ca.Close()
	defer cb.Close()
	ca.SetTimeouts(50*time.Millisecond, 0)
	start := time.Now()
	_, err := ca.Recv()
	if err == nil {
		t.Fatal("Recv from a silent peer succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("Recv error %v, want os.ErrDeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Recv blocked %v despite the deadline", elapsed)
	}
}

// TestWriteDeadlineUnsticksSender: a peer that never reads cannot wedge
// the sender when a write timeout is armed (net.Pipe is unbuffered, so
// the Send blocks until the deadline fires).
func TestWriteDeadlineUnsticksSender(t *testing.T) {
	ca, cb := pipeConns()
	defer ca.Close()
	defer cb.Close()
	ca.SetTimeouts(0, 50*time.Millisecond)
	err := ca.Send(&Hello{Version: ProtoVersion, Name: strings.Repeat("x", 1<<16)})
	if err == nil {
		t.Fatal("Send to a never-reading peer succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("Send error %v, want os.ErrDeadlineExceeded", err)
	}
}
