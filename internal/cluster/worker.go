package cluster

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
)

// ServeOptions configures one worker.
type ServeOptions struct {
	// Name identifies the worker to the coordinator (logs only).
	Name string
	// Workers bounds the goroutines a shard's trials fan across when the
	// coordinator's Assign leaves the choice to the worker (0 = one per
	// CPU).
	Workers int
	// Token is the shared secret the hello's challenge MAC is computed
	// under; it must match the coordinator's or the session is rejected.
	// Empty matches an empty coordinator token.
	Token string
	// OnAssign, if set, runs before each assignment executes. Returning
	// an error abandons the connection without touching the shard —
	// fault injection for the failure-path tests (hintshard's
	// -die-after-assign hook exits the process outright, a goroutine
	// worker's drops the connection, both leaving the shard assigned but
	// never finished).
	OnAssign func(Assign) error
}

// RejectedError is returned by Serve/ServeTCP when the coordinator
// refused the session (authentication failure, handshake timeout).
// Reconnecting cannot help — ServeTCP gives up immediately on it.
type RejectedError struct {
	Reason string
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("cluster: session rejected by coordinator: %s", e.Reason)
}

// handshakeTimeout bounds how long a worker waits for the coordinator's
// challenge (and the coordinator's sessions wait for the answering
// hello, via its heartbeat cutoff). Generous: it only has to beat
// operator patience, not round-trip time.
const handshakeTimeout = 30 * time.Second

// Handshake runs the worker side of the session handshake on a fresh
// connection: receive the coordinator's challenge, answer it with a
// hello carrying the token MAC, and arm the conn's per-message
// deadlines from the challenge's heartbeat parameters. Exported so
// hand-rolled protocol peers (tests, external tooling) can join a
// coordinator without reimplementing the MAC.
func Handshake(conn Conn, name, token string) error {
	if ts, ok := conn.(timeoutSetter); ok {
		ts.SetTimeouts(handshakeTimeout, handshakeTimeout)
	}
	m, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("cluster: worker %s: awaiting challenge: %w", name, err)
	}
	ch, ok := m.(*Challenge)
	if !ok {
		return fmt.Errorf("cluster: worker %s: expected challenge, got %T", name, m)
	}
	if err := conn.Send(&Hello{Version: ProtoVersion, Name: name, MAC: helloMAC(token, ch.Nonce, name)}); err != nil {
		return fmt.Errorf("cluster: worker %s: sending hello: %w", name, err)
	}
	if ts, ok := conn.(timeoutSetter); ok {
		if ch.CutoffMs > 0 {
			// The coordinator pings every PingMs; if nothing arrives for
			// two cutoffs the coordinator is gone (or the path is), and
			// blocking longer helps nobody.
			cutoff := time.Duration(ch.CutoffMs) * time.Millisecond
			ts.SetTimeouts(2*cutoff, cutoff)
		} else {
			ts.SetTimeouts(0, 0)
		}
	}
	return nil
}

// Serve runs the worker side of the protocol on conn until the
// coordinator sends Stop (returning nil) or the connection breaks
// (returning the error). Each Assign executes through
// experiments.RunShardStream, forwarding every completed trial loop as
// it finishes; an experiment error is reported with ShardError and the
// worker stays available for other shards. A dedicated reader goroutine
// answers heartbeat pings even while a shard is computing, so a busy
// worker never reads as dead.
func Serve(conn Conn, o ServeOptions) error {
	defer conn.Close()
	return serve(conn, o, nil)
}

// serve is Serve without the Close, so ServeTCP can interleave retries;
// established, when non-nil, is set to true once the handshake
// completes (the signal that a live coordinator was reached, which
// resets the reconnect failure budget).
func serve(conn Conn, o ServeOptions, established *bool) error {
	name := o.Name
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if err := Handshake(conn, name, o.Token); err != nil {
		return err
	}
	if established != nil {
		*established = true
	}

	// The reader goroutine owns Recv: it answers pings inline (Send is
	// safe for concurrent senders) and forwards everything else to the
	// main loop. The done channel unblocks it at teardown so it never
	// outlives the session.
	type inbound struct {
		m   Message
		err error
	}
	msgs := make(chan inbound)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			m, err := conn.Recv()
			if err == nil {
				if p, ok := m.(*Ping); ok {
					if perr := conn.Send(&Pong{Seq: p.Seq}); perr != nil {
						m, err = nil, perr
					} else {
						continue
					}
				}
			}
			select {
			case msgs <- inbound{m, err}:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	for {
		in := <-msgs
		if in.err != nil {
			return fmt.Errorf("cluster: worker %s: coordinator connection: %w", name, in.err)
		}
		switch a := in.m.(type) {
		case *Stop:
			return nil
		case *Reject:
			return &RejectedError{Reason: a.Reason}
		case *Assign:
			if o.OnAssign != nil {
				if err := o.OnAssign(*a); err != nil {
					return err
				}
			}
			workers := a.Workers
			if workers <= 0 {
				workers = o.Workers
			}
			cfg := experiments.Config{Scale: a.Scale, Seed: a.Seed, Workers: workers}
			shard := parallel.Shard{Index: a.Shard, Count: a.Shards}
			var sinkErr error
			runErr := experiments.RunShardStream(a.Experiment, cfg, shard, func(lp *experiments.LoopPartial) error {
				if err := conn.Send(&LoopResult{Job: a.Job, Shard: a.Shard, Loop: lp}); err != nil {
					sinkErr = err
					return err
				}
				return nil
			})
			if sinkErr != nil {
				// The connection is gone; nothing can be reported.
				return sinkErr
			}
			if runErr != nil {
				if err := conn.Send(&ShardError{Job: a.Job, Shard: a.Shard, Msg: runErr.Error()}); err != nil {
					return err
				}
				continue
			}
			if err := conn.Send(&ShardDone{Job: a.Job, Shard: a.Shard}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cluster: worker %s: unexpected %T from coordinator", name, in.m)
		}
	}
}

// DialOptions configures ServeTCP's reconnect behavior.
type DialOptions struct {
	// Attempts is the consecutive-failure budget: after this many dials
	// or handshakes fail in a row without an established session in
	// between, ServeTCP gives up (0 = 5). The budget resets every time a
	// session is established, so a long-lived worker survives any number
	// of mid-campaign partitions.
	Attempts int
	// BaseDelay/MaxDelay bound the jittered exponential backoff between
	// attempts (0 = 100ms / 5s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Wrap, if set, transforms each freshly dialed conn before use —
	// the hook chaos testing uses to fault the worker side.
	Wrap func(Conn) Conn
	// Logf receives reconnect diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

// ServeTCP dials a coordinator and serves on the connection,
// reconnecting with jittered exponential backoff whenever an
// established session breaks — the worker re-enters the running
// campaign as a fresh conn (its in-flight shard was already requeued by
// the coordinator when the old conn died). It returns nil on a clean
// Stop, the rejection immediately if the coordinator refuses the
// session, and the last error once the consecutive-failure budget is
// spent.
func ServeTCP(addr string, o ServeOptions, d DialOptions) error {
	attempts := d.Attempts
	if attempts <= 0 {
		attempts = 5
	}
	base := d.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxDelay := d.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 5 * time.Second
	}
	logf := d.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// Jitter only needs to decorrelate workers, not be reproducible, so
	// seed from wall clock and pid.
	rng := parallel.NewRNG(time.Now().UnixNano() ^ int64(os.Getpid())<<32)
	backoff := func(failures int) time.Duration {
		delay := base << min(failures-1, 20)
		if delay <= 0 || delay > maxDelay {
			delay = maxDelay
		}
		// Full jitter: uniform in (0, delay] avoids reconnect stampedes.
		return time.Duration(rng.Float64()*float64(delay)) + time.Millisecond
	}

	failures := 0
	for {
		conn, err := DialTCP(addr)
		if err == nil {
			if d.Wrap != nil {
				conn = d.Wrap(conn)
			}
			established := false
			err = func() error {
				defer conn.Close()
				return serve(conn, o, &established)
			}()
			if err == nil {
				return nil
			}
			var rej *RejectedError
			if errors.As(err, &rej) {
				return err
			}
			if established {
				failures = 0
			}
		}
		failures++
		if failures >= attempts {
			return fmt.Errorf("cluster: giving up on %s after %d consecutive failures: %w", addr, failures, err)
		}
		delay := backoff(failures)
		logf("cluster: worker: session to %s failed (%v); reconnecting in %v (attempt %d/%d)", addr, err, delay, failures, attempts)
		time.Sleep(delay)
	}
}
