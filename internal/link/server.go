package link

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"log"
	"net"
	"net/http"
	"net/url"
	"runtime/debug"
	"sync"
	"time"
)

// idleTimeout is the node's patience with a link connection that moves
// no bytes — idle in the router's pool, stalled mid-frame, or not
// draining a reply: somewhere between one and two idleTimeouts of
// silence closes it. The router re-dials transparently (Client.Do), so
// an idle close costs a handshake, never an error.
const idleTimeout = 2 * time.Minute

// Server is the node's end of the link. It wraps the node's outermost
// http.Handler: ordinary requests pass straight through, and a request
// carrying "Upgrade: adprefetch-link/1" is hijacked into a link
// connection whose frames are dispatched to that same handler. There is
// no second execution path — a framed request crosses exactly the
// middleware an HTTP request does.
//
// http.Server neither waits for nor closes hijacked connections, so a
// node that stops (or plays dead) must Close its link Server itself.
type Server struct {
	h http.Handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps h.
func NewServer(h http.Handler) *Server {
	return &Server{h: h, conns: make(map[net.Conn]struct{})}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != Protocol {
		s.h.ServeHTTP(w, r)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "link: connection cannot be upgraded", http.StatusInternalServerError)
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		http.Error(w, "link: node is shutting down", http.StatusServiceUnavailable)
		return
	}
	nc, brw, err := hj.Hijack()
	if err != nil {
		s.mu.Unlock()
		return // the connection is unusable; net/http has already given up on it
	}
	s.conns[nc] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.wg.Done()
	}()
	if _, err := nc.Write([]byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + Protocol + "\r\n\r\n")); err != nil {
		return
	}
	// The hijacked goroutine is ours until we return: serve frames on it.
	sc := &serverConn{h: s.h, nc: nc, br: brw.Reader, remote: nc.RemoteAddr().String(), host: r.Host}
	sc.serve()
}

// Close closes every link connection and waits for their serving
// goroutines; later upgrades are refused. An exchange in flight loses its
// reply, exactly as if the process had died.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// serverConn is one link connection's serving state. Buffers and the
// response writer are reused frame after frame; the *http.Request is
// built fresh for each (handlers may not touch a request's Body or
// ResponseWriter after returning, and nothing else here is shared).
type serverConn struct {
	h      http.Handler
	nc     net.Conn
	br     *bufio.Reader
	remote string
	host   string

	rbuf      []byte
	rw        responseWriter
	body      bodyReader
	due       time.Time
	names     []string // interned header names seen on this connection
	lastValue []string // previous value per interned name
}

func (sc *serverConn) serve() {
	for {
		sc.extendDeadline()
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

// extendDeadline keeps the connection's deadline between one and two
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
// not fit a frame, or a handler panic — http.ErrAbortHandler silently
// (the documented way to abort a response, used by the crash harness),
// anything else logged, as net/http does.
func (sc *serverConn) dispatch() (ok bool) {
	req, good := sc.parseRequest()
	if !good {
		return false
	}
	defer func() {
		if e := recover(); e != nil {
			if e != http.ErrAbortHandler {
				log.Printf("link: panic serving %s %s: %v\n%s", req.Method, req.RequestURI, e, debug.Stack())
			}
			ok = false
		}
	}()
	sc.rw.reset()
	sc.h.ServeHTTP(&sc.rw, req)
	return sc.rw.finish()
}

// parseRequest turns the frame in sc.rbuf into an *http.Request whose
// Body reads straight from the frame buffer.
func (sc *serverConn) parseRequest() (*http.Request, bool) {
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
		i := sc.intern(name)
		if sc.lastValue[i] != string(value) {
			sc.lastValue[i] = string(value)
		}
		key := sc.names[i]
		req.Header[key] = append(req.Header[key], sc.lastValue[i])
	}
	sc.body.Reset(f.p)
	req.Body = &sc.body
	req.ContentLength = int64(len(f.p))
	return req, true
}

// maxInterned bounds the per-connection header-name table.
const maxInterned = 32

// intern returns the index of name's canonical form in sc.names, adding
// it when new. In steady state (the same few names every frame) it
// allocates nothing.
func (sc *serverConn) intern(name []byte) int {
	for i, s := range sc.names {
		if s == string(name) {
			return i
		}
	}
	if len(sc.names) >= maxInterned {
		sc.names, sc.lastValue = sc.names[:0], sc.lastValue[:0] // start over rather than grow without bound
	}
	sc.names = append(sc.names, http.CanonicalHeaderKey(string(name)))
	sc.lastValue = append(sc.lastValue, "")
	return len(sc.names) - 1
}

func internMethod(m []byte) string {
	switch string(m) {
	case http.MethodGet:
		return http.MethodGet
	case http.MethodPost:
		return http.MethodPost
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
