package link

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"log"
	"net"
	"net/http"
	"net/url"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// The server's patience, net/http's ReadTimeout, WriteTimeout and
// IdleTimeout in all but name. readTimeout bounds reading one HTTP
// request from its first byte, writeTimeout writing one reply, and
// idleTimeout the wait for a keep-alive connection's next request. A
// link connection counts only silence: one that moves no bytes —
// idle in the router's pool, stalled mid-frame, or not draining a
// reply — for somewhere between one and two idleTimeouts is closed.
// The router re-dials transparently (Client.Do), so an idle close
// costs a handshake, never an error.
const (
	readTimeout  = 30 * time.Second
	writeTimeout = 30 * time.Second
	idleTimeout  = 2 * time.Minute
)

// Server is a node's (or the router's) HTTP/1.1 server. It owns its
// listeners and serves each accepted connection on one goroutine, one
// exchange at a time (httpserver.go): a request is parsed off the
// connection's buffered reader, handed to the handler as an ordinary
// *http.Request, and the handler's buffered reply goes out with one
// Write. A request carrying "Upgrade: adprefetch-link/1" switches its
// connection to frames, each dispatched to the same handler: there is
// no second execution path — a framed request crosses exactly the
// middleware an HTTP request does.
//
// One Close ends everything: listeners, HTTP connections and link
// connections alike.
type Server struct {
	h http.Handler

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}
	closed    bool        // no Serve may start or accept any more
	draining  atomic.Bool // connections close after their exchange in flight
	wg        sync.WaitGroup
}

// NewServer serves h.
func NewServer(h http.Handler) *Server {
	return &Server{h: h, listeners: make(map[net.Listener]struct{}), conns: make(map[*serverConn]struct{})}
}

// Serve accepts connections on ln until Close or Shutdown, which close
// ln, and then returns http.ErrServerClosed; any other accept failure
// is returned as is. Transient accept errors (out of file descriptors)
// are retried with a backoff, as net/http does.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return http.ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
		ln.Close()
	}()
	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return http.ErrServerClosed
			}
			if ne, ok := err.(interface{ Temporary() bool }); ok && ne.Temporary() {
				backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		s.track(nc)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// track registers a freshly accepted connection and starts serving it.
func (s *Server) track(nc net.Conn) {
	sc := &serverConn{s: s, nc: nc, remote: nc.RemoteAddr().String()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[sc] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go sc.serve()
}

// stopListening closes the listeners and bars new ones.
func (s *Server) stopListening() {
	s.draining.Store(true)
	s.mu.Lock()
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()
}

// Close closes the listeners and every connection, then waits for the
// connections' goroutines. An exchange in flight loses its reply,
// exactly as if the process had died.
func (s *Server) Close() {
	s.stopListening()
	s.mu.Lock()
	for sc := range s.conns {
		sc.state.Store(connClosed)
		sc.nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// shutdownPoll is how often Shutdown looks for connections gone idle.
const shutdownPoll = 10 * time.Millisecond

// Shutdown drains the server the way net/http's Shutdown does: it
// closes the listeners, closes connections idle between exchanges (HTTP
// and link alike), lets an exchange in flight finish and send its reply
// — that connection then closes — and returns once no connection is
// left, or with ctx's error when ctx ends first (Close then ends the
// rest).
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopListening()
	tick := time.NewTicker(shutdownPoll)
	defer tick.Stop()
	for {
		if s.closeIdle() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// closeIdle closes the connections waiting for their next exchange and
// reports whether none is left.
func (s *Server) closeIdle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sc := range s.conns {
		if sc.state.CompareAndSwap(connIdle, connClosed) {
			sc.nc.Close()
		}
	}
	return len(s.conns) == 0
}

// A connection's state, as Shutdown sees it.
const (
	connIdle   int32 = iota // waiting for the next request or frame
	connActive              // its first byte arrived: an exchange is in flight
	connClosed              // closed by Close or Shutdown
)

// serverConn is one connection's serving state. Buffers and the
// response writers are reused exchange after exchange; the
// *http.Request is built fresh for each (handlers may not touch a
// request's Body or ResponseWriter after returning, and nothing else
// here is shared).
type serverConn struct {
	s      *Server
	nc     net.Conn
	br     *bufio.Reader
	remote string
	state  atomic.Int32

	names []interned // header names seen on this connection

	// HTTP/1.1 (httpserver.go)
	hw      httpWriter
	body    reqBody
	line    []byte // a line longer than br's buffer, assembled
	headLen int    // bytes of the request head read so far
	wdue    time.Time
	date    []byte
	dateSec int64
	scratch [512]byte

	// link frames
	host  string // the upgrade request's Host, every framed request's
	rbuf  []byte
	rw    responseWriter
	fbody bodyReader
	due   time.Time
}

// interned is one header name in a connection's table: as it arrived,
// in canonical form, and the value it carried last, so a steady stream
// of identical names and values parses without allocating.
type interned struct {
	raw, canon, last string
}

func (sc *serverConn) serve() {
	defer func() {
		sc.nc.Close()
		s := sc.s
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
		s.wg.Done()
	}()
	sc.br = bufio.NewReaderSize(sc.nc, 4<<10)
	sc.serveHTTP()
}

// awaitNext waits for the first byte of the next exchange and marks
// the connection active. It reports false when the connection must
// close instead: the peer hung up, the deadline passed, or the server
// is draining.
func (sc *serverConn) awaitNext() bool {
	if sc.br.Buffered() > 0 {
		return !sc.s.draining.Load() // pipelined: the next request is already here
	}
	sc.state.Store(connIdle)
	if sc.s.draining.Load() {
		return false
	}
	if _, err := sc.br.Peek(1); err != nil {
		return false
	}
	return sc.state.CompareAndSwap(connIdle, connActive)
}

// run runs the handler. It reports false when the handler panicked: the
// connection must be dropped without a reply — http.ErrAbortHandler
// silently (the documented way to abort a response, used by the crash
// harness), anything else logged, as net/http does.
func (sc *serverConn) run(w http.ResponseWriter, req *http.Request) (ok bool) {
	defer func() {
		if e := recover(); e != nil {
			if e != http.ErrAbortHandler {
				log.Printf("link: panic serving %s %s: %v\n%s", req.Method, req.RequestURI, e, debug.Stack())
			}
			ok = false
		}
	}()
	sc.s.h.ServeHTTP(w, req)
	return true
}

// serveFrames serves an upgraded connection: frame after frame until
// the peer hangs up, a frame fails, or the server stops.
func (sc *serverConn) serveFrames() {
	for {
		sc.extendDeadline()
		if !sc.awaitNext() {
			return
		}
		var err error
		if sc.rbuf, err = readFrame(sc.br, sc.rbuf); err != nil {
			return // peer closed, Close closed us, or the deadline passed
		}
		if !sc.dispatch() {
			return
		}
		sc.extendDeadline()
		if _, err := sc.nc.Write(sc.rw.frame); err != nil {
			return
		}
		if cap(sc.rbuf) > keepBuf {
			sc.rbuf = nil
		}
		if cap(sc.rw.frame) > keepBuf {
			sc.rw.frame = nil
		}
	}
}

// extendDeadline keeps a link connection's deadline between one and two
// idleTimeouts ahead. Deadlines are absolute, so one set far ahead
// covers many frames: the steady-state cost is a clock read, not a
// timer update per frame.
func (sc *serverConn) extendDeadline() {
	if now := time.Now(); sc.due.Sub(now) < idleTimeout {
		sc.due = now.Add(2 * idleTimeout)
		sc.nc.SetDeadline(sc.due)
	}
}

// dispatch runs the handler on the frame in sc.rbuf and leaves the
// encoded reply in sc.rw.frame. It reports false when the connection
// must be dropped without a reply: a malformed frame, a reply that does
// not fit a frame, or a handler panic.
func (sc *serverConn) dispatch() bool {
	req, good := sc.parseFrame()
	if !good {
		return false
	}
	sc.rw.reset()
	return sc.run(&sc.rw, req) && sc.rw.finish()
}

// parseFrame turns the frame in sc.rbuf into an *http.Request whose
// Body reads straight from the frame buffer.
func (sc *serverConn) parseFrame() (*http.Request, bool) {
	f := frameReader{p: sc.rbuf}
	method := f.take(f.u8())
	uri := f.take(f.u16())
	nhdr := f.u8()
	if f.bad {
		return nil, false
	}
	rawURI := string(uri)
	u, err := url.ParseRequestURI(rawURI)
	if err != nil {
		return nil, false
	}
	req := &http.Request{
		Method:     internMethod(method),
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header, nhdr),
		Host:       sc.host,
		RemoteAddr: sc.remote,
		RequestURI: rawURI,
	}
	for ; nhdr > 0; nhdr-- {
		name, value, ok := f.header()
		if !ok {
			return nil, false
		}
		i := sc.lookup(name)
		if i < 0 {
			i = sc.intern(name)
		}
		e := &sc.names[i]
		if e.last != string(value) {
			e.last = string(value)
		}
		req.Header[e.canon] = append(req.Header[e.canon], e.last)
	}
	sc.fbody.Reset(f.p)
	req.Body = &sc.fbody
	req.ContentLength = int64(len(f.p))
	return req, true
}

// maxInterned bounds the per-connection header-name table.
const maxInterned = 32

// lookup returns the index of name in sc.names, -1 when absent.
func (sc *serverConn) lookup(name []byte) int {
	for i := range sc.names {
		if sc.names[i].raw == string(name) {
			return i
		}
	}
	return -1
}

// intern adds name to sc.names and returns its index. In steady state
// (the same few names every exchange) nothing is added, so nothing is
// allocated.
func (sc *serverConn) intern(name []byte) int {
	if len(sc.names) >= maxInterned {
		sc.names = sc.names[:0] // start over rather than grow without bound
	}
	raw := string(name)
	canon := http.CanonicalHeaderKey(raw)
	sc.names = append(sc.names, interned{raw: raw, canon: canon})
	return len(sc.names) - 1
}

func internMethod(m []byte) string {
	switch string(m) {
	case http.MethodGet:
		return http.MethodGet
	case http.MethodPost:
		return http.MethodPost
	case http.MethodHead:
		return http.MethodHead
	}
	return string(m)
}

// bodyReader is a request body over the frame buffer.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// responseWriter buffers a handler's reply directly into the response
// frame. Like net/http's, it snapshots the header map at the first
// WriteHeader or Write; later header changes are not sent.
type responseWriter struct {
	header http.Header
	frame  []byte
	wrote  bool
	err    error
}

func (w *responseWriter) reset() {
	if w.header == nil {
		w.header = make(http.Header)
	}
	clear(w.header)
	w.frame = beginFrame(w.frame)
	w.wrote, w.err = false, nil
}

func (w *responseWriter) Header() http.Header { return w.header }

func (w *responseWriter) WriteHeader(status int) {
	if w.wrote || (status >= 100 && status < 200) {
		return // a second call, or an informational status the link does not carry
	}
	w.wrote = true
	w.frame = binary.LittleEndian.AppendUint16(w.frame, uint16(status))
	nAt := len(w.frame)
	w.frame = append(w.frame, 0)
	n := 0
	for name, values := range w.header {
		for _, v := range values {
			if n == 0xff {
				w.err = errFrame
				return
			}
			if w.frame, w.err = appendHeader(w.frame, name, v); w.err != nil {
				return
			}
			n++
		}
	}
	w.frame[nAt] = byte(n)
}

func (w *responseWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	if w.err != nil {
		return 0, w.err
	}
	w.frame = append(w.frame, p...)
	return len(p), nil
}

// finish completes the frame; false when the reply cannot be framed.
func (w *responseWriter) finish() bool {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	if w.err == nil {
		w.frame, w.err = endFrame(w.frame)
	}
	return w.err == nil
}
