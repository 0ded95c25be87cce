package server

import (
	"bufio"
	"errors"
	"net"
	"sync"
)

// One listener, two protocols: the first bytes of each accepted
// connection decide whether it speaks HTTP or the length-framed binary
// batch protocol. Frontend is the only user of these helpers; raserve
// and rabroker get the single-port idiom by serving through it.

// isHTTP reports whether the 4 peeked bytes start an HTTP request line.
func isHTTP(b []byte) bool {
	switch string(b) {
	case "GET ", "PUT ", "POST", "HEAD", "OPTI", "DELE", "PATC":
		return true
	}
	return false
}

// bufConn replays already-buffered (sniffed) bytes in front of the raw
// connection, so the receiving protocol handler sees the stream intact.
type bufConn struct {
	net.Conn
	r *bufio.Reader
}

func (c *bufConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// httpListener adapts sniffed connections to a net.Listener: deliver
// feeds connections classified as HTTP, the embedded http.Server Accepts
// them.
type httpListener struct {
	ch   chan net.Conn
	addr net.Addr
	once sync.Once
	done chan struct{}
}

// newHTTPListener creates a listener reporting addr as its address.
func newHTTPListener(addr net.Addr) *httpListener {
	return &httpListener{ch: make(chan net.Conn), addr: addr, done: make(chan struct{})}
}

// deliver hands one sniffed connection to the HTTP server; after Close
// the connection is dropped.
func (l *httpListener) deliver(c net.Conn) {
	select {
	case l.ch <- c:
	case <-l.done:
		c.Close()
	}
}

func (l *httpListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, errors.New("server: listener closed")
	}
}

func (l *httpListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *httpListener) Addr() net.Addr { return l.addr }
