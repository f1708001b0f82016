package cluster

import (
	"bufio"
	"net"
	"sync"
	"time"

	"repro/internal/stats"
)

// maxFrame bounds one protocol message on the wire, deferring to the
// frame layer's own limit as the single source of truth. Loop records
// carry per-trial collector payloads, so they can reach megabytes at
// paper scale; a gigabyte means a corrupted length prefix, not a bigger
// experiment.
const maxFrame = stats.MaxFrame

// Conn is one bidirectional, ordered protocol stream between a
// coordinator and a worker. Send is safe for concurrent callers (the
// worker's reader goroutine answers pings while the main loop streams
// results); Recv is safe for one concurrent caller; Close unblocks
// both.
type Conn interface {
	Send(Message) error
	Recv() (Message, error)
	Close() error
}

// Transport delivers worker connections to a coordinator.
type Transport interface {
	// Accept blocks until the next worker connects. It returns io.EOF
	// when no further workers can ever arrive (a fixed-size in-process
	// pool is exhausted, or the transport was closed).
	Accept() (Conn, error)
	// Close releases the transport (listeners, in-process workers).
	// Connections already accepted stay open until individually closed.
	Close() error
}

// timeoutSetter is the optional Conn capability the coordinator and
// worker use to arm per-message deadlines; streamConn implements it.
type timeoutSetter interface {
	// SetTimeouts arms per-message read/write deadlines (0 disables
	// either). Must be called before concurrent Send/Recv traffic
	// starts — in practice, during the handshake.
	SetTimeouts(read, write time.Duration)
}

// streamConn frames messages over a net.Conn — a TCP connection or one
// end of an in-process net.Pipe. Every transport routes through it, so
// the frame and message codecs are exercised identically everywhere.
// Each direction carries an independent rolling CRC32C chain
// (stats.WriteFrameSum/ReadFrameSum): rsum/wsum thread the chain state
// frame to frame, so corruption, drops, duplicates, and reorders on the
// stream all surface as stats.ErrChecksum at the reader.
type streamConn struct {
	nc   net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	wg   sync.Mutex
	rsum uint32 // reader-side chain state (single reader, no lock)
	wsum uint32 // writer-side chain state (guarded by wg)

	readTimeout  time.Duration // per-message budgets; 0 = no deadline
	writeTimeout time.Duration

	faults *ConnFaults // non-nil when fault injection is active (guarded by wg)
}

// newStreamConn wraps a connection into a Conn.
func newStreamConn(nc net.Conn) *streamConn {
	return &streamConn{nc: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
}

// SetTimeouts arms per-message deadlines. Not safe concurrently with
// in-flight Send/Recv; both runtimes call it during the handshake, with
// one goroutine touching the conn.
func (c *streamConn) SetTimeouts(read, write time.Duration) {
	c.readTimeout, c.writeTimeout = read, write
}

func (c *streamConn) Send(m Message) error {
	payload, err := EncodeMessage(m)
	if err != nil {
		return err
	}
	c.wg.Lock()
	defer c.wg.Unlock()
	if c.writeTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout))
		defer c.nc.SetWriteDeadline(time.Time{})
	}
	if c.faults != nil {
		return c.sendFaulty(payload)
	}
	sum, err := stats.WriteFrameSum(c.w, payload, c.wsum)
	if err != nil {
		return err
	}
	c.wsum = sum
	return c.w.Flush()
}

func (c *streamConn) Recv() (Message, error) {
	if c.readTimeout > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.readTimeout))
	}
	payload, sum, err := stats.ReadFrameSum(c.r, maxFrame, c.rsum)
	if err != nil {
		return nil, err
	}
	c.rsum = sum
	return DecodeMessage(payload)
}

// Close closes the underlying connection, unblocking pending reads and
// writes on both ends.
func (c *streamConn) Close() error { return c.nc.Close() }
