package link

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// The HTTP client's contract, pinned against net/http's own Transport:
// every client in httpClients must observe the same statuses, bodies and
// device-read headers, and open the same number of connections, as the
// table says.

// httpClient is one RoundTripper under test. redials reads its count of
// transparent re-sends on a fresh connection (nil: the client does not
// count them).
type httpClient struct {
	name string
	make func(t *testing.T) (rt http.RoundTripper, redials func() int64)
}

var httpClients = []httpClient{
	{"nethttp", func(t *testing.T) (http.RoundTripper, func() int64) {
		tr := &http.Transport{}
		t.Cleanup(tr.CloseIdleConnections)
		return tr, nil
	}},
	{"sync", func(t *testing.T) (http.RoundTripper, func() int64) {
		reg := obs.NewRegistry()
		tr := NewTransport(reg)
		t.Cleanup(tr.CloseIdleConnections)
		return tr, func() int64 { return reg.CounterValue("client_http_redials_total") }
	}},
}

// bigReply is longer than net/http's 2 KiB response buffer, so the
// handler's reply goes out chunked.
var bigReply = strings.Repeat("0123456789abcdef", 200)

// contractServer serves the contract's endpoints on a real loopback
// listener, counting the connections it accepts and the requests each
// path receives.
type contractServer struct {
	*httptest.Server
	conns atomic.Int64
	hits  map[string]*atomic.Int64
	idle  chan net.Conn // connections as they go idle after a reply
}

func newContractServer(t *testing.T) *contractServer {
	s := &contractServer{hits: map[string]*atomic.Int64{}, idle: make(chan net.Conn, 16)}
	for _, p := range []string{"/len", "/big", "/missing", "/down", "/close", "/abort"} {
		s.hits[p] = new(atomic.Int64)
	}
	s.Server = httptest.NewUnstartedServer(http.HandlerFunc(s.serve))
	s.Config.ConnState = func(c net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			s.conns.Add(1)
		case http.StateIdle:
			select {
			case s.idle <- c:
			default:
			}
		}
	}
	s.Start()
	t.Cleanup(s.Close)
	return s
}

func (s *contractServer) serve(w http.ResponseWriter, r *http.Request) {
	if n := s.hits[r.URL.Path]; n != nil {
		n.Add(1)
	}
	body, _ := io.ReadAll(r.Body)
	h := w.Header()
	switch r.URL.Path {
	case "/len":
		h.Set("Content-Type", "application/json")
		h.Set("X-Adprefetch-Version", "1")
		fmt.Fprintf(w, `{"got":%q}`, body)
	case "/big":
		h.Set("Content-Type", "application/x-adprefetch-batch")
		h.Set("X-Adprefetch-Version", "1; bin")
		for i := 0; i < len(bigReply); i += 1000 {
			io.WriteString(w, bigReply[i:min(i+1000, len(bigReply))])
			w.(http.Flusher).Flush()
		}
	case "/missing":
		http.Error(w, "no such client", http.StatusNotFound)
	case "/down":
		h.Set("Retry-After", "3")
		http.Error(w, "shard unavailable", http.StatusServiceUnavailable)
	case "/close":
		h.Set("Connection", "close")
		io.WriteString(w, "bye")
	case "/abort":
		w.Write([]byte("half a reply that must never be sent"))
		panic(http.ErrAbortHandler)
	}
}

// exchange is one request of a row: key marks a POST that carries an
// Idempotency-Key (and so may be re-sent); unread closes the reply's
// body without reading it.
type exchange struct {
	method, path, body string
	key, unread        bool
}

// do runs one exchange and renders what a device would read of it.
func do(t *testing.T, hc *http.Client, url string, ex exchange) string {
	t.Helper()
	var rd io.Reader
	if ex.body != "" {
		rd = strings.NewReader(ex.body)
	}
	req, err := http.NewRequest(ex.method, url+ex.path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if ex.key {
		req.Header.Set("Idempotency-Key", "dev-1")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return "error"
	}
	defer resp.Body.Close()
	if ex.unread {
		return fmt.Sprintf("%d unread", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "error reading body: " + err.Error()
	}
	if len(data) > 64 {
		data = append(data[:32:32], fmt.Sprintf("...(%d bytes)", len(data))...)
	}
	return fmt.Sprintf("%d ct=%q ra=%q ver=%q len=%d %q", resp.StatusCode,
		resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"),
		resp.Header.Get("X-Adprefetch-Version"), resp.ContentLength, data)
}

func TestHTTPClientContract(t *testing.T) {
	get := func(path string) exchange { return exchange{method: "GET", path: path} }
	lenOK := `200 ct="application/json" ra="" ver="1" len=10 "{\"got\":\"\"}"`
	for _, row := range []struct {
		name string
		// steps run in order; between (when set) runs after the first.
		steps   []exchange
		between func(t *testing.T, s *contractServer, rt http.RoundTripper)
		want    []string
		conns   int64 // connections the server accepted
		hits    map[string]int64
		redials int64 // re-sends the client counted (clients that count)
	}{
		{name: "content-length reply",
			steps: []exchange{get("/len"), {method: "POST", path: "/len", body: "ab", key: true}},
			want:  []string{lenOK, `200 ct="application/json" ra="" ver="1" len=12 "{\"got\":\"ab\"}"`},
			conns: 1},
		{name: "chunked reply over 2 KiB",
			steps: []exchange{{method: "POST", path: "/big", body: "bundle", key: true}, get("/len")},
			want: []string{`200 ct="application/x-adprefetch-batch" ra="" ver="1; bin" len=-1 "0123456789abcdef0123456789abcdef...(3200 bytes)"`,
				lenOK},
			conns: 1},
		{name: "4xx with a body",
			steps: []exchange{get("/missing"), get("/len")},
			want:  []string{`404 ct="text/plain; charset=utf-8" ra="" ver="" len=15 "no such client\n"`, lenOK},
			conns: 1},
		{name: "5xx with a body",
			steps: []exchange{get("/down"), get("/len")},
			want:  []string{`503 ct="text/plain; charset=utf-8" ra="3" ver="" len=18 "shard unavailable\n"`, lenOK},
			conns: 1},
		{name: "connection close is not pooled",
			steps: []exchange{get("/close"), get("/len")},
			want:  []string{`200 ct="text/plain; charset=utf-8" ra="" ver="" len=3 "bye"`, lenOK},
			conns: 2},
		{name: "body closed unread is not pooled",
			steps: []exchange{{method: "GET", path: "/big", unread: true}, get("/len")},
			want:  []string{"200 unread", lenOK},
			conns: 2},
		{name: "close idle connections",
			steps: []exchange{get("/len"), get("/len")},
			between: func(t *testing.T, s *contractServer, rt http.RoundTripper) {
				rt.(interface{ CloseIdleConnections() }).CloseIdleConnections()
			},
			want:  []string{lenOK, lenOK},
			conns: 2},
		{name: "idle connection closed by the server",
			steps: []exchange{{method: "POST", path: "/len", body: "a", key: true}, {method: "POST", path: "/len", body: "b", key: true}},
			between: func(t *testing.T, s *contractServer, rt http.RoundTripper) {
				(<-s.idle).Close()
			},
			want: []string{`200 ct="application/json" ra="" ver="1" len=11 "{\"got\":\"a\"}"`,
				`200 ct="application/json" ra="" ver="1" len=11 "{\"got\":\"b\"}"`},
			conns: 2, hits: map[string]int64{"/len": 2}, redials: 1},
		{name: "abort on a fresh connection surfaces",
			steps: []exchange{get("/abort")},
			want:  []string{"error"},
			conns: 1, hits: map[string]int64{"/abort": 1}},
	} {
		for _, hc := range httpClients {
			t.Run(row.name+"/"+hc.name, func(t *testing.T) {
				s := newContractServer(t)
				rt, redials := hc.make(t)
				client := &http.Client{Transport: rt}
				var got []string
				for i, ex := range row.steps {
					if i == 1 && row.between != nil {
						row.between(t, s, rt)
					}
					got = append(got, do(t, client, s.URL, ex))
				}
				for i := range row.want {
					if i >= len(got) || got[i] != row.want[i] {
						t.Fatalf("replies:\n got %q\nwant %q", got, row.want)
					}
				}
				if c := s.conns.Load(); c != row.conns {
					t.Errorf("server accepted %d connections, want %d", c, row.conns)
				}
				for p, want := range row.hits {
					if h := s.hits[p].Load(); h != want {
						t.Errorf("%s reached the handler %d times, want %d", p, h, want)
					}
				}
				if redials != nil {
					if r := redials(); r != row.redials {
						t.Errorf("%d re-sends counted, want %d", r, row.redials)
					}
				}
			})
		}
	}
}

// Eight goroutines share one client: every reply answers its own
// request. Run under -race (make race).
func TestHTTPClientConcurrent(t *testing.T) {
	for _, hc := range httpClients {
		t.Run(hc.name, func(t *testing.T) {
			s := newContractServer(t)
			rt, _ := hc.make(t)
			client := &http.Client{Transport: rt}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						body := fmt.Sprintf("g%d-%d", g, i)
						path := "/len"
						if i%10 == 9 {
							path = "/big"
						}
						got := do(t, client, s.URL, exchange{method: "POST", path: path, body: body, key: true})
						want := fmt.Sprintf(`200 ct="application/json" ra="" ver="1" len=%d %q`, len(body)+10, fmt.Sprintf(`{"got":%q}`, body))
						if path == "/big" {
							want = `200 ct="application/x-adprefetch-batch" ra="" ver="1; bin" len=-1 "0123456789abcdef0123456789abcdef...(3200 bytes)"`
						}
						if got != want {
							t.Errorf("g%d exchange %d: %s, want %s", g, i, got, want)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// A keyless POST is not idempotent: when its pooled connection turns
// out dead, the error surfaces instead of a re-send, as with net/http.
func TestHTTPTransportKeylessPostIsNotResent(t *testing.T) {
	s := newContractServer(t)
	reg := obs.NewRegistry()
	tr := NewTransport(reg)
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	post := exchange{method: "POST", path: "/len", body: "x"}
	if got := do(t, hc, s.URL, post); !strings.HasPrefix(got, "200 ") {
		t.Fatalf("first POST: %s", got)
	}
	(<-s.idle).Close()
	if got := do(t, hc, s.URL, post); got != "error" {
		t.Fatalf("keyless POST on a dead connection: %s, want an error", got)
	}
	if r := reg.CounterValue("client_http_redials_total"); r != 0 {
		t.Fatalf("%d re-sends of a keyless POST", r)
	}
	if h := s.hits["/len"].Load(); h != 1 {
		t.Fatalf("/len reached %d times, want 1", h)
	}
	if got := do(t, hc, s.URL, post); !strings.HasPrefix(got, "200 ") {
		t.Fatalf("POST after the dead connection: %s", got)
	}
}

// A request's context bounds the exchange: a client Timeout ends a
// stalled reply with an error instead of a hang, and the connection is
// not pooled.
func TestHTTPTransportHonorsClientTimeout(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stall" {
			<-release
		}
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	defer close(release)
	reg := obs.NewRegistry()
	tr := NewTransport(reg)
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 50 * time.Millisecond}
	if _, err := hc.Get(srv.URL + "/stall"); err == nil {
		t.Fatal("a stalled reply outlived the client timeout")
	}
	if n := tr.open.Load(); n != 0 {
		t.Fatalf("%d connections open after a timed-out exchange", n)
	}
	resp, err := hc.Get(srv.URL + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if n := tr.open.Load(); n != 1 {
		t.Fatalf("%d connections pooled after a clean exchange, want 1", n)
	}
}

// cannedConn answers every request with the same reply: each write
// rewinds the reply for the reads that follow.
type cannedConn struct {
	reply string
	r     strings.Reader
}

func (c *cannedConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *cannedConn) Write(p []byte) (int, error)      { c.r.Reset(c.reply); return len(p), nil }
func (c *cannedConn) Close() error                     { return nil }
func (c *cannedConn) LocalAddr() net.Addr              { return nil }
func (c *cannedConn) RemoteAddr() net.Addr             { return nil }
func (c *cannedConn) SetDeadline(time.Time) error      { return nil }
func (c *cannedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *cannedConn) SetWriteDeadline(time.Time) error { return nil }

// One exchange over a pooled connection, as a device makes it: a POST
// with a rewindable JSON body, its reply read to EOF and closed. The
// count is the client side alone (no server, no socket). Of the 24,
// building the request as the device does takes 6 (header map,
// request, body reader and its closer, GetBody's closure), the body
// that holds the connection 1, and (*http.Request).Write and
// http.ReadResponse the other 17.
func TestHTTPTransportAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; the budget is exact only without it")
	}
	tr := NewTransport(obs.NewRegistry())
	cc := &cannedConn{reply: "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" +
		"X-Adprefetch-Version: 1\r\nContent-Length: 11\r\n\r\n{\"ok\":true}"}
	pr := &peer{addr: "node:80"}
	tr.peers["node"] = pr
	tr.open.Add(1)
	tr.put(&conn{nc: cc, peer: pr, br: bufio.NewReader(cc)})

	u := &url.URL{Scheme: "http", Host: "node", Path: "/v1/slot"}
	payload := []byte(`{"client":7,"now_ns":1000}`)
	keyValue, ctValue := []string{"dev-7-1"}, []string{"application/json"}
	var buf [64]byte
	exchange := func() {
		hdr := make(http.Header, 4)
		hdr["Content-Type"], hdr["Idempotency-Key"] = ctValue, keyValue
		req := &http.Request{Method: "POST", URL: u, Host: u.Host, Header: hdr,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Body: io.NopCloser(bytes.NewReader(payload)), ContentLength: int64(len(payload))}
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(payload)), nil }
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := resp.Body.Read(buf[:]); err != nil {
				break
			}
		}
		resp.Body.Close()
	}
	exchange() // grow the connection's buffers
	const want = 24
	if got := testing.AllocsPerRun(100, exchange); got != want {
		t.Fatalf("one exchange allocates %v times, want %d", got, want)
	}
	if n := tr.open.Load(); n != 1 {
		t.Fatalf("%d connections after the exchanges, want the one pooled", n)
	}
}
