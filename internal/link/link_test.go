package link

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

var testRelay = []string{"Content-Type", "X-Echo"}

// echo answers with what it was sent, so a reply that reached the wrong
// request — a shared buffer, a crossed connection — is visible.
func echo(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	w.Header().Set("Content-Type", "text/plain")
	w.Header().Set("X-Echo", r.Method+" "+r.RequestURI+" "+r.Header.Get("X-Tag"))
	w.Header().Set("X-Not-Relayed", "dropped by the client")
	if r.URL.Query().Get("teapot") != "" {
		w.WriteHeader(http.StatusTeapot)
	}
	fmt.Fprintf(w, "%d:", r.ContentLength)
	w.Write(body)
}

// serveLinked serves h with a link.Server on a real listener and
// returns the server and its base URL.
func serveLinked(t testing.TB, h http.Handler) (*Server, string) {
	t.Helper()
	links := NewServer(h)
	ln := listen(t)
	go links.Serve(ln)
	t.Cleanup(links.Close)
	return links, "http://" + ln.Addr().String()
}

func newTestClient(t testing.TB) (*Client, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	c := NewClient(reg, 5*time.Second, testRelay)
	t.Cleanup(c.Close)
	return c, reg
}

func (s *Server) openConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// One connection carries exchange after exchange; every field of the
// request reaches the handler and every relayed field of the reply
// comes back.
func TestExchangeRoundTrip(t *testing.T) {
	links, base := serveLinked(t, http.HandlerFunc(echo))
	c, reg := newTestClient(t)

	for i := 0; i < 5; i++ {
		tag := fmt.Sprintf("t%d", i)
		resp, err := c.Do(base, "POST", "/v1/batch?x="+tag, []Header{{"X-Tag", tag}}, []byte("payload-"+tag))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 || string(resp.Body) != fmt.Sprintf("%d:payload-%s", len("payload-"+tag), tag) {
			t.Fatalf("exchange %d: %d %q", i, resp.Status, resp.Body)
		}
		if got, want := resp.Get("X-Echo"), "POST /v1/batch?x="+tag+" "+tag; got != want {
			t.Fatalf("exchange %d: echo header %q, want %q", i, got, want)
		}
		if resp.Get("Content-Type") != "text/plain" || resp.Get("X-Not-Relayed") != "" {
			t.Fatalf("exchange %d: relayed headers %+v", i, resp.Header)
		}
	}
	resp, err := c.Do(base, "GET", "/v1/bundle?teapot=1", nil, nil)
	if err != nil || resp.Status != http.StatusTeapot || string(resp.Body) != "0:" {
		t.Fatalf("bodyless GET: %+v %v", resp, err)
	}
	// A body past the per-connection keep threshold round-trips and does
	// not wedge the connection for the next exchange.
	big := bytes.Repeat([]byte("x"), keepBuf+12345)
	if resp, err = c.Do(base, "POST", "/big", nil, big); err != nil || len(resp.Body) != len(big)+len(fmt.Sprint(len(big)))+1 {
		t.Fatalf("big body: %v", err)
	}
	if resp, err = c.Do(base, "GET", "/after", nil, nil); err != nil || resp.Status != 200 {
		t.Fatalf("after big body: %v", err)
	}
	if d := reg.CounterTotal("cluster_link_dials_total"); d != 1 {
		t.Fatalf("%d dials for sequential exchanges, want 1 pooled connection", d)
	}
	if links.openConns() != 1 || c.open.Load() != 1 {
		t.Fatalf("open connections: server %d client %d, want 1/1", links.openConns(), c.open.Load())
	}
	// Ordinary HTTP still reaches the wrapped handler on the same port.
	hr, err := http.Get(base + "/plain")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 || hr.Header.Get("X-Echo") != "GET /plain" {
		t.Fatalf("plain HTTP through the link server: %d %q", hr.StatusCode, hr.Header.Get("X-Echo"))
	}
}

// A handler that aborts must cost the connection and produce no reply;
// the next exchange dials afresh.
func TestHandlerAbortDropsConnection(t *testing.T) {
	links, base := serveLinked(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/abort" {
			w.Write([]byte("half a reply that must never be sent"))
			panic(http.ErrAbortHandler)
		}
		echo(w, r)
	}))
	c, reg := newTestClient(t)

	if _, err := c.Do(base, "GET", "/ok", nil, nil); err != nil {
		t.Fatal(err)
	}
	// The pooled connection is reused, aborted, and — because nothing of
	// a reply arrived — re-sent once on a fresh connection, which aborts
	// too: the caller sees one error, the pool two broken connections.
	if resp, err := c.Do(base, "GET", "/abort", nil, nil); err == nil {
		t.Fatalf("aborted exchange returned a reply: %+v", resp)
	}
	if b := reg.CounterTotal("cluster_link_broken_total"); b != 2 {
		t.Fatalf("cluster_link_broken_total = %d, want 2", b)
	}
	if r := reg.CounterTotal("cluster_link_redials_total"); r != 1 {
		t.Fatalf("cluster_link_redials_total = %d, want 1", r)
	}
	waitFor(t, "aborted connections to close", func() bool { return links.openConns() == 0 && c.open.Load() == 0 })
	if resp, err := c.Do(base, "GET", "/ok", nil, nil); err != nil || resp.Status != 200 {
		t.Fatalf("exchange after an abort: %v", err)
	}
}

// A node that does not speak the link refuses the upgrade: a dial error,
// not a hang and not a mis-parsed reply.
func TestPlainNodeRefusesUpgrade(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(echo))
	defer srv.Close()
	c, _ := newTestClient(t)
	_, err := c.Do(srv.URL, "GET", "/v1/bundle", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "refused the upgrade") {
		t.Fatalf("plain node: %v", err)
	}
	if c.open.Load() != 0 {
		t.Fatalf("refused upgrade left %d connections open", c.open.Load())
	}
	if _, err := c.Do("https://example.invalid", "GET", "/", nil, nil); err == nil {
		t.Fatal("https base accepted")
	}
}

// A node restarted at the same address leaves the router holding dead
// pooled connections; each costs one transparent re-dial, never an
// error.
func TestIdleDeathRedials(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	start := func(ln net.Listener) *Server {
		links := NewServer(http.HandlerFunc(echo))
		go links.Serve(ln)
		return links
	}
	links := start(ln)
	c, reg := newTestClient(t)
	base := "http://" + addr

	// Pool three connections.
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			if _, err := c.Do(base, "GET", "/warm", nil, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	close(gate)
	wg.Wait()

	links.Close()
	if ln, err = net.Listen("tcp", addr); err != nil {
		t.Skipf("cannot re-listen on %s: %v", addr, err)
	}
	links = start(ln)
	defer links.Close()

	pooled := c.open.Load()
	for i := int64(0); i < pooled+2; i++ {
		if resp, err := c.Do(base, "GET", "/again", nil, nil); err != nil || resp.Status != 200 {
			t.Fatalf("exchange %d after restart: %v", i, err)
		}
	}
	if r := reg.CounterTotal("cluster_link_redials_total"); r == 0 {
		t.Fatal("no re-dial counted though every pooled connection was dead")
	}
}

// Forget drops a base's pool; Close leaves neither connections nor
// serving goroutines behind on either end.
func TestForgetAndCloseLeaveNothingBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	links := NewServer(http.HandlerFunc(echo))
	ln := listen(t)
	go links.Serve(ln)
	base := "http://" + ln.Addr().String()
	reg := obs.NewRegistry()
	c := NewClient(reg, 5*time.Second, testRelay)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := c.Do(base, "GET", "/x", nil, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.open.Load() == 0 {
		t.Fatal("nothing pooled")
	}
	c.Forget(base)
	if c.open.Load() != 0 {
		t.Fatalf("Forget left %d connections open", c.open.Load())
	}
	waitFor(t, "forgotten connections to leave the server", func() bool { return links.openConns() == 0 })

	if _, err := c.Do(base, "GET", "/x", nil, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if c.open.Load() != 0 {
		t.Fatalf("Close left %d connections open", c.open.Load())
	}
	if _, err := c.Do(base, "GET", "/x", nil, nil); err == nil {
		t.Fatal("Do succeeded on a closed client")
	}
	// The server's Close must end connections the peer keeps open.
	c2 := NewClient(obs.NewRegistry(), 5*time.Second, nil)
	if _, err := c2.Do(base, "GET", "/x", nil, nil); err != nil {
		t.Fatal(err)
	}
	links.Close()
	if links.openConns() != 0 {
		t.Fatalf("Server.Close left %d connections", links.openConns())
	}
	if _, err := c2.Do(base, "GET", "/x", nil, nil); err == nil {
		t.Fatal("closed link server accepted an upgrade")
	}
	c2.Close()
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "goroutines to drain", func() bool { return runtime.NumGoroutine() <= before })
}

// 32 goroutines share one client against one node, racing exchanges with
// Forget: every reply must be the reply to its own request. Run under
// -race (make race).
func TestLinkConcurrentStress(t *testing.T) {
	_, base := serveLinked(t, http.HandlerFunc(echo))
	c, _ := newTestClient(t)

	const workers, each = 32, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tag := fmt.Sprintf("g%d-i%d", g, i)
				body := []byte(strings.Repeat(tag, 1+i%7))
				resp, err := c.Do(base, "POST", "/v1/batch", []Header{{"X-Tag", tag}}, body)
				if err != nil {
					t.Errorf("%s: %v", tag, err)
					return
				}
				if want := fmt.Sprintf("%d:%s", len(body), body); string(resp.Body) != want || resp.Get("X-Echo") != "POST /v1/batch "+tag {
					t.Errorf("%s: crossed reply %q / %q", tag, resp.Body, resp.Get("X-Echo"))
					return
				}
				if g == 0 && i%50 == 49 {
					c.Forget(base)
				}
			}
		}(g)
	}
	wg.Wait()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// FuzzLinkFrame feeds hostile bytes to every decoder on the link: the
// frame reader (a length prefix must never buy more memory than the
// bytes that actually arrived, plus one chunk), the node's request
// parser and the router's response parser (header counts and lengths
// are bounded by the payload; never a panic). Well-formed frames must
// survive a decode → re-encode round trip.
func FuzzLinkFrame(f *testing.F) {
	req, _ := appendRequest(nil, "POST", "/v1/batch?client=3", []Header{{"Idempotency-Key", "k1"}, {"Content-Type", "application/json"}}, []byte(`{"client":3}`))
	f.Add(req)
	get, _ := appendRequest(nil, "GET", "/v1/health", nil, nil)
	f.Add(get)
	f.Add([]byte{0xff, 0xff, 0xff, 0x03, 1, 2, 3})               // 64 MiB claimed, 3 bytes sent
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                        // over MaxFrame
	f.Add([]byte{8, 0, 0, 0, 3, 'G', 'E', 'T', 1, 0, '/', 0xff}) // 255 headers claimed, none present
	f.Add([]byte{6, 0, 0, 0, 200, 0, 2, 9, 'a', 'b'})            // response: header name runs off the end
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil)
		if limit := 2 * (len(data) + readChunk); cap(payload) > limit {
			t.Fatalf("%d input bytes grew a %d-byte buffer", len(data), cap(payload))
		}
		if err != nil {
			return
		}
		sc := &serverConn{rbuf: payload}
		if r, ok := sc.parseFrame(); ok {
			var hdr []Header
			for name, vs := range r.Header {
				for _, v := range vs {
					hdr = append(hdr, Header{name, v})
				}
			}
			body, _ := io.ReadAll(r.Body)
			again, err := appendRequest(nil, r.Method, r.RequestURI, hdr, body)
			if err != nil {
				t.Fatalf("parsed request does not re-encode: %v", err)
			}
			sc2 := &serverConn{rbuf: again[4:]}
			r2, ok := sc2.parseFrame()
			if !ok || r2.Method != r.Method || r2.RequestURI != r.RequestURI || r2.ContentLength != r.ContentLength || len(r2.Header) != len(r.Header) {
				t.Fatalf("request changed across a round trip: %+v vs %+v", r, r2)
			}
		}
		cn := &conn{rbuf: payload, lastVal: make([]string, len(testRelay))}
		if resp, err := cn.parseResponse(testRelay); err == nil {
			if resp.Status != int(binary.LittleEndian.Uint16(payload)) || len(resp.Header) > 0xff || len(resp.Body) > len(payload) {
				t.Fatalf("response decoded out of bounds: %+v", resp)
			}
		}
	})
}
