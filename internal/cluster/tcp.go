package cluster

import (
	"fmt"
	"net"
)

// TCPTransport accepts workers over TCP: the coordinator listens, each
// worker process dials in (DialTCP + Serve, or `hintshard -connect`),
// and frames flow over the connection. Unlike the fixed-size
// in-process transport, Accept keeps accepting until Close — a fleet
// can grow mid-run and late workers simply start stealing from the
// queue.
type TCPTransport struct {
	ln net.Listener
}

// ListenTCP starts a coordinator listener on addr (e.g. ":7432" or
// "127.0.0.1:0" to pick a free port; see Addr).
func ListenTCP(addr string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	return &TCPTransport{ln: ln}, nil
}

// Addr returns the bound address (the resolved port when addr ended in
// ":0").
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

func (t *TCPTransport) Accept() (Conn, error) {
	c, err := t.ln.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newStreamConn(c), nil
}

func (t *TCPTransport) Close() error { return t.ln.Close() }

// DialTCP connects a worker to a coordinator at addr.
func DialTCP(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: connect %s: %w", addr, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newStreamConn(c), nil
}
