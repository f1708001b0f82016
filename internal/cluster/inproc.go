package cluster

import (
	"io"
	"net"
	"sync"
)

// inProcTransport runs n workers as goroutines in this process,
// connected to the coordinator over synchronous in-memory pipes. The
// frames and message codecs are exercised exactly as on a real network —
// only the bytes' carrier differs — which is what lets the determinism
// golden test cover the full runtime cheaply, and makes it the local
// fleet of cmd/hintshard.
type inProcTransport struct {
	conns chan Conn

	mu     sync.Mutex
	closed bool
	ends   []Conn // worker-side conns, closed with the transport
}

// NewInProcess returns a transport with n in-process workers; serve is
// started once per worker on its own goroutine with the worker's index
// and connection (normally a Serve call; tests substitute misbehaving
// workers). Accept yields the n coordinator ends and then io.EOF.
func NewInProcess(n int, serve func(i int, c Conn)) Transport {
	t := &inProcTransport{conns: make(chan Conn, n)}
	for i := 0; i < n; i++ {
		cp, wp := net.Pipe()
		work := newStreamConn(wp)
		t.ends = append(t.ends, work)
		t.conns <- newStreamConn(cp)
		go func(i int) {
			defer work.Close()
			serve(i, work)
		}(i)
	}
	close(t.conns)
	return t
}

func (t *inProcTransport) Accept() (Conn, error) {
	c, ok := <-t.conns
	if !ok {
		return nil, io.EOF
	}
	return c, nil
}

func (t *inProcTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	for _, c := range t.ends {
		c.Close()
	}
	return nil
}
