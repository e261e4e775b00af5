package link

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The HTTP server's contract, pinned against net/http's own Server:
// raw request bytes go over a real loopback connection to every server
// in httpServers, and each must answer as the table says — status,
// body, the headers a device reads, Content-Length, whether the
// connection stayed open, and how many times the handler ran.

// httpServer is one server under test: serve stands h up on a fresh
// loopback listener for the test's lifetime and returns its address.
type httpServer struct {
	name  string
	serve func(t *testing.T, h http.Handler) string
}

var httpServers = []httpServer{
	{"nethttp", func(t *testing.T, h http.Handler) string {
		ln := listen(t)
		srv := &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		return ln.Addr().String()
	}},
	{"link", func(t *testing.T, h http.Handler) string {
		ln := listen(t)
		srv := NewServer(h)
		go srv.Serve(ln)
		t.Cleanup(srv.Close)
		return ln.Addr().String()
	}},
}

func listen(t testing.TB) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// contractHandler serves the server contract's endpoints and counts
// the requests that reach it.
type contractHandler struct{ hits atomic.Int64 }

func (c *contractHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.hits.Add(1)
	h := w.Header()
	switch r.URL.Path {
	case "/echo":
		// Everything the server parsed, so a request that reached the
		// handler in a different shape is visible.
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "unreadable body", http.StatusBadRequest)
			return
		}
		keys := make([]string, 0, len(r.Header))
		for k := range r.Header {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		h.Set("Content-Type", "application/json")
		h.Set("X-Adprefetch-Version", "1")
		fmt.Fprintf(w, "%s %s %s host=%s cl=%d te=%v close=%t client=%s tag=%q keys=%v body=%q",
			r.Method, r.RequestURI, r.Proto, r.Host, r.ContentLength, r.TransferEncoding, r.Close,
			r.URL.Query().Get("client"), r.Header.Get("X-Tag"), keys, body)
	case "/ignore":
		io.WriteString(w, "ignored")
	case "/limited":
		if _, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
			http.Error(w, "unreadable request: "+err.Error(), http.StatusBadRequest)
			return
		}
		io.WriteString(w, "fits")
	case "/down":
		h.Set("Retry-After", "3")
		http.Error(w, "shard unavailable", http.StatusServiceUnavailable)
	case "/big":
		h.Set("Content-Type", "application/x-adprefetch-batch")
		io.WriteString(w, bigReply)
	case "/late":
		h.Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		h.Set("X-Adprefetch-Version", "set after WriteHeader")
		h.Set("Content-Type", "text/plain")
		io.WriteString(w, `{}`)
	case "/sniff":
		io.WriteString(w, "<html><body>hi</body></html>")
	case "/nocontent":
		w.WriteHeader(http.StatusNoContent)
		io.WriteString(w, "dropped")
	case "/notmodified":
		w.WriteHeader(http.StatusNotModified)
		io.WriteString(w, "dropped")
	case "/close":
		h.Set("Connection", "close")
		io.WriteString(w, "bye")
	case "/abort":
		w.Write([]byte("half a reply that must never be sent"))
		panic(http.ErrAbortHandler)
	case "/panic":
		w.Write([]byte("half a reply that must never be sent"))
		panic("contract handler panics")
	default:
		http.NotFound(w, r)
	}
}

// reply renders what a client reads of one reply.
func reply(resp *http.Response) string {
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "error reading body: " + err.Error()
	}
	if len(body) > 160 {
		body = append(body[:32:32], fmt.Sprintf("...(%d bytes)", len(body))...)
	}
	return fmt.Sprintf("%d ct=%q ra=%q ver=%q len=%d date=%t %q", resp.StatusCode,
		resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"),
		resp.Header.Get("X-Adprefetch-Version"), resp.ContentLength, resp.Header.Get("Date") != "", body)
}

// outcome is what one row observes on its connection.
type outcome struct {
	replies []string // "no reply" when the connection ended without one
	open    bool     // a probe request after the replies was answered
	hits    int64    // handler runs before the probe
}

// exchangeRaw writes req on a fresh connection to addr (cont, when
// set, only after a 100 Continue arrives), reads up to n replies, and
// probes whether the connection is still usable.
func exchangeRaw(t *testing.T, addr string, c *contractHandler, req, cont string, n int) outcome {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	// Written concurrently: a server that refuses a request may stop
	// reading before all of it has been sent.
	go io.WriteString(nc, req)
	br := bufio.NewReader(nc)
	method, _, _ := strings.Cut(req, " ")
	var out outcome
	if cont != "" {
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			out.replies = append(out.replies, "no reply")
			out.hits = c.hits.Load()
			return out
		}
		out.replies = append(out.replies, fmt.Sprintf("interim %d", resp.StatusCode))
		go io.WriteString(nc, cont)
	}
	for i := 0; i < n; i++ {
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			out.replies = append(out.replies, "no reply")
			break
		}
		out.replies = append(out.replies, reply(resp))
	}
	out.hits = c.hits.Load()
	if _, err := io.WriteString(nc, "GET /echo?probe HTTP/1.1\r\nHost: node\r\n\r\n"); err == nil {
		if resp, err := http.ReadResponse(br, nil); err == nil {
			resp.Body.Close()
			out.open = resp.StatusCode == http.StatusOK
		}
	}
	return out
}

const okHead = `200 ct="application/json" ra="" ver="1"`

// Request heads the rows build on.
var (
	hugeHeader = "X-Huge: " + strings.Repeat("h", 1<<20+64<<10) + "\r\n"
	longHeader = "X-Long: " + strings.Repeat("l", 10<<10) + "\r\n"
)

func TestHTTPServerContract(t *testing.T) {
	echoReply := func(line string) string {
		return fmt.Sprintf("%s len=%d date=true %q", okHead, len(line), line)
	}
	getQuery := "GET /echo?client=3&now_ns=1000 HTTP/1.1 host=node cl=0 te=[] close=false client=3 tag=\"\" keys=[] body=\"\""
	badRequest := `400 ct="text/plain; charset=utf-8" ra="" ver="" len=-1 date=false "400 Bad Request"`
	for _, row := range []struct {
		name string
		req  string // raw bytes, possibly several pipelined requests
		cont string // body sent once a 100 Continue arrives
		n    int    // replies to read (default 1)
		want outcome
		// differs holds a server's own outcome where it answers
		// differently from net/http, and why.
		differs map[string]outcome
		why     string
	}{
		{name: "GET with a query",
			req:  "GET /echo?client=3&now_ns=1000 HTTP/1.1\r\nHost: node\r\n\r\n",
			want: outcome{replies: []string{echoReply(getQuery)}, open: true, hits: 1}},
		{name: "POST with a body",
			req: "POST /echo HTTP/1.1\r\nHost: node\r\nContent-Type: application/json\r\nX-Tag: t1\r\nContent-Length: 12\r\n\r\n{\"client\":3}",
			want: outcome{replies: []string{echoReply(
				`POST /echo HTTP/1.1 host=node cl=12 te=[] close=false client= tag="t1" keys=[Content-Length Content-Type X-Tag] body="{\"client\":3}"`)},
				open: true, hits: 1}},
		{name: "POST with a chunked body",
			req: "POST /echo HTTP/1.1\r\nHost: node\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n",
			want: outcome{replies: []string{echoReply(
				`POST /echo HTTP/1.1 host=node cl=-1 te=[chunked] close=false client= tag="" keys=[] body="hello world"`)},
				open: true, hits: 1}},
		{name: "bad request line",
			req:  "GARBAGE\r\n\r\n",
			want: outcome{replies: []string{badRequest}}},
		{name: "malformed HTTP version",
			req:  "GET /echo HTTP/one\r\nHost: node\r\n\r\n",
			want: outcome{replies: []string{badRequest}}},
		{name: "unsupported HTTP version",
			req: "GET /echo HTTP/2.0\r\nHost: node\r\n\r\n",
			want: outcome{replies: []string{`505 ct="text/plain; charset=utf-8" ra="" ver="" len=-1 date=false ` +
				`"505 HTTP Version Not Supported: unsupported protocol version"`}}},
		{name: "missing Host on HTTP/1.1",
			req: "GET /echo HTTP/1.1\r\n\r\n",
			want: outcome{replies: []string{`400 ct="text/plain; charset=utf-8" ra="" ver="" len=-1 date=false ` +
				`"400 Bad Request: missing required Host header"`}}},
		{name: "malformed Host",
			req: "GET /echo HTTP/1.1\r\nHost: no de\r\n\r\n",
			want: outcome{replies: []string{`400 ct="text/plain; charset=utf-8" ra="" ver="" len=-1 date=false ` +
				`"400 Bad Request: malformed Host header"`}}},
		{name: "header name with a space",
			req: "GET /echo HTTP/1.1\r\nHost: node\r\nX Tag: t\r\n\r\n",
			want: outcome{replies: []string{`400 ct="text/plain; charset=utf-8" ra="" ver="" len=-1 date=false ` +
				`"400 Bad Request: invalid header name"`}}},
		{name: "header name with a separator",
			req:  "GET /echo HTTP/1.1\r\nHost: node\r\nX-Tag@: t\r\n\r\n",
			want: outcome{replies: []string{badRequest}}},
		{name: "header value with a control byte",
			req:  "GET /echo HTTP/1.1\r\nHost: node\r\nX-Tag: a\x01b\r\n\r\n",
			want: outcome{replies: []string{badRequest}}},
		{name: "folded header line",
			req:     "GET /echo HTTP/1.1\r\nHost: node\r\nX-Tag: a\r\n b\r\n\r\n",
			want:    outcome{replies: []string{echoReply(`GET /echo HTTP/1.1 host=node cl=0 te=[] close=false client= tag="a b" keys=[X-Tag] body=""`)}, open: true, hits: 1},
			differs: map[string]outcome{"link": {replies: []string{badRequest}}},
			why:     "obsolete line folding (RFC 9112 §5.2) is refused rather than unfolded"},
		{name: "Content-Length with Transfer-Encoding",
			req:     "POST /echo HTTP/1.1\r\nHost: node\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
			want:    outcome{replies: []string{echoReply(`POST /echo HTTP/1.1 host=node cl=-1 te=[chunked] close=false client= tag="" keys=[] body="abc"`)}, open: true, hits: 1},
			differs: map[string]outcome{"link": {replies: []string{badRequest}}},
			why:     "a request that frames its body two ways is a smuggling shape (RFC 9112 §6.3): refused, not resolved in favour of chunked"},
		{name: "duplicate Content-Length that differs",
			req:  "POST /echo HTTP/1.1\r\nHost: node\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
			want: outcome{replies: []string{badRequest}}},
		{name: "duplicate Content-Length that agrees",
			req:  "POST /echo HTTP/1.1\r\nHost: node\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
			want: outcome{replies: []string{echoReply(`POST /echo HTTP/1.1 host=node cl=3 te=[] close=false client= tag="" keys=[Content-Length] body="abc"`)}, open: true, hits: 1}},
		{name: "malformed Content-Length",
			req:  "POST /echo HTTP/1.1\r\nHost: node\r\nContent-Length: 3x\r\n\r\nabc",
			want: outcome{replies: []string{badRequest}}},
		{name: "unknown transfer coding",
			req: "POST /echo HTTP/1.1\r\nHost: node\r\nTransfer-Encoding: gzip\r\n\r\n",
			want: outcome{replies: []string{`501 ct="text/plain; charset=utf-8" ra="" ver="" len=-1 date=false ` +
				`"Unsupported transfer encoding"`}}},
		{name: "headers over the limit",
			req: "GET /echo HTTP/1.1\r\nHost: node\r\n" + hugeHeader + "\r\n",
			want: outcome{replies: []string{`431 ct="text/plain; charset=utf-8" ra="" ver="" len=-1 date=false ` +
				`"431 Request Header Fields Too Large"`}}},
		{name: "header line longer than the read buffer",
			req:  "GET /echo HTTP/1.1\r\nHost: node\r\n" + longHeader + "\r\n",
			want: outcome{replies: []string{echoReply(`GET /echo HTTP/1.1 host=node cl=0 te=[] close=false client= tag="" keys=[X-Long] body=""`)}, open: true, hits: 1}},
		{name: "Connection: close",
			req:  "GET /echo HTTP/1.1\r\nHost: node\r\nConnection: close\r\n\r\n",
			want: outcome{replies: []string{echoReply(`GET /echo HTTP/1.1 host=node cl=0 te=[] close=true client= tag="" keys=[Connection] body=""`)}, hits: 1}},
		{name: "handler sets Connection: close",
			req:  "GET /close HTTP/1.1\r\nHost: node\r\n\r\n",
			want: outcome{replies: []string{`200 ct="text/plain; charset=utf-8" ra="" ver="" len=3 date=true "bye"`}, hits: 1}},
		{name: "HTTP/1.0 without keep-alive",
			req:  "GET /echo HTTP/1.0\r\n\r\n",
			want: outcome{replies: []string{echoReply(`GET /echo HTTP/1.0 host= cl=0 te=[] close=true client= tag="" keys=[] body=""`)}, hits: 1}},
		{name: "HTTP/1.0 with keep-alive",
			req:  "GET /echo HTTP/1.0\r\nHost: node\r\nConnection: keep-alive\r\n\r\n",
			want: outcome{replies: []string{echoReply(`GET /echo HTTP/1.0 host=node cl=0 te=[] close=false client= tag="" keys=[Connection] body=""`)}, open: true, hits: 1}},
		{name: "Expect: 100-continue",
			req:  "POST /echo HTTP/1.1\r\nHost: node\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\n",
			cont: "ping",
			want: outcome{replies: []string{"interim 100", echoReply(`POST /echo HTTP/1.1 host=node cl=4 te=[] close=false client= tag="" keys=[Content-Length Expect] body="ping"`)}, open: true, hits: 1}},
		{name: "unknown expectation",
			req:  "POST /echo HTTP/1.1\r\nHost: node\r\nExpect: 200-ok\r\nContent-Length: 4\r\n\r\nping",
			want: outcome{replies: []string{`417 ct="" ra="" ver="" len=0 date=true ""`}}},
		{name: "pipelined requests answered in order",
			req: "GET /echo?client=1 HTTP/1.1\r\nHost: node\r\n\r\nPOST /echo?client=2 HTTP/1.1\r\nHost: node\r\nContent-Length: 2\r\n\r\nabGET /down HTTP/1.1\r\nHost: node\r\n\r\n",
			n:   3,
			want: outcome{replies: []string{
				echoReply(`GET /echo?client=1 HTTP/1.1 host=node cl=0 te=[] close=false client=1 tag="" keys=[] body=""`),
				echoReply(`POST /echo?client=2 HTTP/1.1 host=node cl=2 te=[] close=false client=2 tag="" keys=[Content-Length] body="ab"`),
				`503 ct="text/plain; charset=utf-8" ra="3" ver="" len=18 date=true "shard unavailable\n"`,
			}, open: true, hits: 3}},
		{name: "small unread body is drained",
			req:  "POST /ignore HTTP/1.1\r\nHost: node\r\nContent-Length: 5\r\n\r\nhello",
			want: outcome{replies: []string{`200 ct="text/plain; charset=utf-8" ra="" ver="" len=7 date=true "ignored"`}, open: true, hits: 1}},
		{name: "large unread body closes",
			req:  "POST /ignore HTTP/1.1\r\nHost: node\r\nContent-Length: 307200\r\n\r\n" + strings.Repeat("b", 300<<10),
			want: outcome{replies: []string{`200 ct="text/plain; charset=utf-8" ra="" ver="" len=7 date=true "ignored"`}, hits: 1}},
		{name: "MaxBytesReader refusal closes",
			req: "POST /limited HTTP/1.1\r\nHost: node\r\nContent-Length: 2097152\r\n\r\n" + strings.Repeat("b", 2<<20),
			want: outcome{replies: []string{`400 ct="text/plain; charset=utf-8" ra="" ver="" len=49 date=true ` +
				`"unreadable request: http: request body too large\n"`}, hits: 1}},
		{name: "ErrAbortHandler sends nothing",
			req:  "GET /abort HTTP/1.1\r\nHost: node\r\n\r\n",
			want: outcome{replies: []string{"no reply"}, hits: 1}},
		{name: "other panics send nothing",
			req:  "GET /panic HTTP/1.1\r\nHost: node\r\n\r\n",
			want: outcome{replies: []string{"no reply"}, hits: 1}},
		{name: "headers snapshot at WriteHeader",
			req:  "GET /late HTTP/1.1\r\nHost: node\r\n\r\n",
			want: outcome{replies: []string{`202 ct="application/json" ra="" ver="" len=2 date=true "{}"`}, open: true, hits: 1}},
		{name: "Content-Type sniffed",
			req:  "GET /sniff HTTP/1.1\r\nHost: node\r\n\r\n",
			want: outcome{replies: []string{`200 ct="text/html; charset=utf-8" ra="" ver="" len=28 date=true "<html><body>hi</body></html>"`}, open: true, hits: 1}},
		{name: "204 carries no body",
			req:  "GET /nocontent HTTP/1.1\r\nHost: node\r\n\r\n",
			want: outcome{replies: []string{`204 ct="" ra="" ver="" len=0 date=true ""`}, open: true, hits: 1}},
		{name: "304 carries no body",
			req:  "GET /notmodified HTTP/1.1\r\nHost: node\r\n\r\n",
			want: outcome{replies: []string{`304 ct="" ra="" ver="" len=0 date=true ""`}, open: true, hits: 1}},
		{name: "HEAD carries no body",
			req:  "HEAD /down HTTP/1.1\r\nHost: node\r\n\r\n",
			want: outcome{replies: []string{`503 ct="text/plain; charset=utf-8" ra="3" ver="" len=18 date=true ""`}, open: true, hits: 1}},
		{name: "reply over 2 KiB",
			req:     "GET /big HTTP/1.1\r\nHost: node\r\n\r\n",
			want:    outcome{replies: []string{`200 ct="application/x-adprefetch-batch" ra="" ver="" len=-1 date=true "0123456789abcdef0123456789abcdef...(3200 bytes)"`}, open: true, hits: 1},
			differs: map[string]outcome{"link": {replies: []string{`200 ct="application/x-adprefetch-batch" ra="" ver="" len=3200 date=true "0123456789abcdef0123456789abcdef...(3200 bytes)"`}, open: true, hits: 1}},
			why:     "the whole reply is buffered, so it always goes out with a Content-Length instead of chunked past net/http's 2 KiB buffer"},
	} {
		for _, srv := range httpServers {
			t.Run(row.name+"/"+srv.name, func(t *testing.T) {
				c := &contractHandler{}
				addr := srv.serve(t, c)
				n := max(row.n, 1)
				got := exchangeRaw(t, addr, c, row.req, row.cont, n)
				want := row.want
				if d, ok := row.differs[srv.name]; ok {
					want = d
				}
				if !slices.Equal(got.replies, want.replies) {
					t.Errorf("replies:\n got %q\nwant %q", got.replies, want.replies)
				}
				if got.open != want.open {
					t.Errorf("connection open after the replies: %t, want %t", got.open, want.open)
				}
				if got.hits != want.hits {
					t.Errorf("handler ran %d times, want %d", got.hits, want.hits)
				}
			})
		}
	}
}

// Eight keep-alive connections at once, each with its own stream of
// requests: every reply answers its own request. Run under -race
// (make race).
func TestHTTPServerConcurrent(t *testing.T) {
	for _, srv := range httpServers {
		t.Run(srv.name, func(t *testing.T) {
			c := &contractHandler{}
			addr := srv.serve(t, c)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					nc, err := net.Dial("tcp", addr)
					if err != nil {
						t.Error(err)
						return
					}
					defer nc.Close()
					br := bufio.NewReader(nc)
					for i := 0; i < 50; i++ {
						body := fmt.Sprintf("g%d-%d", g, i)
						fmt.Fprintf(nc, "POST /echo?client=%d HTTP/1.1\r\nHost: node\r\nX-Tag: %s\r\nContent-Length: %d\r\n\r\n%s", g, body, len(body), body)
						resp, err := http.ReadResponse(br, nil)
						if err != nil {
							t.Errorf("g%d exchange %d: %v", g, i, err)
							return
						}
						got := reply(resp)
						line := fmt.Sprintf("POST /echo?client=%d HTTP/1.1 host=node cl=%d te=[] close=false client=%d tag=%q keys=[Content-Length X-Tag] body=%q",
							g, len(body), g, body, body)
						if want := fmt.Sprintf("%s len=%d date=true %q", okHead, len(line), line); got != want {
							t.Errorf("g%d exchange %d:\n got %s\nwant %s", g, i, got, want)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if h := c.hits.Load(); h != 8*50 {
				t.Fatalf("handler ran %d times, want %d", h, 8*50)
			}
		})
	}
}

// discardConn is a connection whose reads come from r and whose writes
// vanish: the request reader's side of a connection, for the fuzzer.
type discardConn struct {
	cannedConn
	r io.Reader
}

func (c *discardConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *discardConn) Write(p []byte) (int, error) { return len(p), nil }

// FuzzHTTPRequest feeds hostile bytes to the server's request reader,
// request after request as on one keep-alive connection. It must never
// panic, never buffer past its limits, and every request it accepts
// must be one net/http's own reader accepts too, with the same method,
// URI, protocol, host, headers, framing and body — read from the same
// place in the stream.
func FuzzHTTPRequest(f *testing.F) {
	f.Add([]byte("GET /v1/bundle?client=3&now_ns=1000 HTTP/1.1\r\nHost: node\r\n\r\n"))
	f.Add([]byte("POST /v1/batch HTTP/1.1\r\nHost: node\r\nContent-Type: application/json\r\nIdempotency-Key: dev-3-1\r\nContent-Length: 12\r\n\r\n{\"client\":3}" +
		"POST /v1/batch HTTP/1.1\r\nHost: node\r\nContent-Type: application/json\r\nIdempotency-Key: dev-3-2\r\nContent-Length: 2\r\n\r\n{}"))
	f.Add([]byte("POST /echo HTTP/1.1\r\nHost: node\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\nX-Trailer: t\r\n\r\n"))
	f.Add([]byte("GET /x HTTP/1.0\r\nConnection: keep-alive\r\nPragma: no-cache\r\n\r\nHEAD http://node/y HTTP/1.1\r\nHost: other\r\n\r\n"))
	f.Add([]byte("POST /x HTTP/1.1\r\nHost: node\r\nContent-Length: 3\r\nContent-Length: 3\r\nExpect: 100-continue\r\n\r\nabc"))
	f.Add([]byte("CONNECT node:443 HTTP/1.1\r\nHost: node:443\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nHost: node\r\nX-A: a\r\n b\r\nX B: c\r\nX-C: \x01\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\nHost: node\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := &serverConn{s: NewServer(nil), nc: &discardConn{r: bytes.NewReader(data)}, remote: "device:1"}
		sc.br = bufio.NewReaderSize(sc.nc, 4<<10)
		ref := bufio.NewReader(bytes.NewReader(data))
		for {
			req, err := sc.readRequest()
			if cap(sc.line) > maxHeaderBytes+4<<10 || sc.headLen > maxHeaderBytes {
				t.Fatalf("head buffered %d bytes (line buffer %d) past the %d limit", sc.headLen, cap(sc.line), maxHeaderBytes)
			}
			if err != nil {
				return
			}
			body, berr := io.ReadAll(req.Body)
			want, err := http.ReadRequest(ref)
			if err != nil {
				t.Fatalf("accepted a request net/http refuses (%v): %s %s %v", err, req.Method, req.RequestURI, req.Header)
			}
			wantBody, werr := io.ReadAll(want.Body)
			if (berr == nil) != (werr == nil) {
				t.Fatalf("body read: %v, net/http's %v", berr, werr)
			}
			delete(want.Header, "Host")
			if req.Method != want.Method || req.RequestURI != want.RequestURI || req.Proto != want.Proto ||
				req.Host != want.Host || req.URL.String() != want.URL.String() || req.Close != want.Close ||
				req.ContentLength != want.ContentLength || !slices.Equal(req.TransferEncoding, want.TransferEncoding) {
				t.Fatalf("request differs from net/http's:\n got %s %q %s host=%q url=%#v close=%t cl=%d te=%v\nwant %s %q %s host=%q url=%#v close=%t cl=%d te=%v",
					req.Method, req.RequestURI, req.Proto, req.Host, req.URL, req.Close, req.ContentLength, req.TransferEncoding,
					want.Method, want.RequestURI, want.Proto, want.Host, want.URL, want.Close, want.ContentLength, want.TransferEncoding)
			}
			if len(req.Header) != len(want.Header) {
				t.Fatalf("headers differ:\n got %q\nwant %q", req.Header, want.Header)
			}
			for k, v := range want.Header {
				if !slices.Equal(req.Header[k], v) {
					t.Fatalf("header %q: got %q, want %q", k, req.Header[k], v)
				}
			}
			if berr != nil {
				return
			}
			if !bytes.Equal(body, wantBody) {
				t.Fatalf("body %q, net/http's %q", body, wantBody)
			}
		}
	})
}

// budgetHandler answers the way a node's per-op endpoint does, without
// allocating: it reads the body into a fixed buffer and replies with
// preset header values and a fixed body.
type budgetHandler struct{ buf [256]byte }

var (
	budgetType    = []string{"application/json"}
	budgetVersion = []string{"1"}
	budgetReply   = []byte("{}\n")
)

func (h *budgetHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	for {
		if _, err := r.Body.Read(h.buf[:]); err != nil {
			break
		}
	}
	hdr := w.Header()
	hdr["Content-Type"], hdr["X-Adprefetch-Version"] = budgetType, budgetVersion
	w.Write(budgetReply)
}

// The server side of one exchange over a keep-alive connection, as a
// device makes it: a POST with a JSON body and an Idempotency-Key, its
// reply written back. No socket: the connection is canned. Of the 6,
// the request takes 3 (the *http.Request, its URL and the RequestURI
// string), its header map 2 (the map and one group of slots), and the
// values' backing array 1. The names, the repeated values, the body,
// the response writer and the reply buffer are reused from the
// previous exchange.
func TestHTTPServerAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; the budget is exact only without it")
	}
	req := "POST /v1/slot HTTP/1.1\r\nHost: node:80\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: 26\r\n" +
		"Content-Type: application/json\r\nIdempotency-Key: dev-7-1\r\n\r\n{\"client\":7,\"now_ns\":1000}"
	cc := &cannedConn{reply: req}
	cc.r.Reset(req)
	h := &budgetHandler{}
	sc := &serverConn{s: NewServer(h), nc: cc, remote: "device:1"}
	sc.br = bufio.NewReaderSize(cc, 4<<10)
	exchange := func() {
		if !sc.nextRequest() {
			t.Fatal("the connection did not stay open")
		}
	}
	exchange() // intern the names, grow the buffers
	const want = 6
	if got := testing.AllocsPerRun(100, exchange); got != want {
		t.Fatalf("one exchange allocates %v times, want %d", got, want)
	}
}

// Shutdown drains: the exchange in flight finishes and its reply goes
// out, idle HTTP and link connections close, the listener refuses new
// connections, and Serve returns http.ErrServerClosed.
func TestServerShutdown(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	srv := NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(started)
			<-release
		}
		io.WriteString(w, "done "+r.URL.Path)
	}))
	ln := listen(t)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()
	dial := func() (net.Conn, *bufio.Reader) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		return nc, bufio.NewReader(nc)
	}
	roundTrip := func(nc net.Conn, br *bufio.Reader, path string) *http.Response {
		fmt.Fprintf(nc, "GET %s HTTP/1.1\r\nHost: node\r\n\r\n", path)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return resp
	}

	idleHTTP, idleBR := dial()
	resp := roundTrip(idleHTTP, idleBR, "/fast")
	io.Copy(io.Discard, resp.Body)
	idleLink, linkBR := dial()
	fmt.Fprintf(idleLink, "GET /v1/link HTTP/1.1\r\nHost: node\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", Protocol)
	if resp, err := http.ReadResponse(linkBR, nil); err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v %v", resp, err)
	}
	busy, busyBR := dial()
	inflight := make(chan *http.Response, 1)
	go func() { inflight <- roundTrip(busy, busyBR, "/slow") }()
	<-started

	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()
	for _, c := range []struct {
		name string
		br   *bufio.Reader
	}{{"idle HTTP", idleBR}, {"idle link", linkBR}} {
		if _, err := c.br.ReadByte(); err != io.EOF {
			t.Errorf("%s connection: read %v, want EOF", c.name, err)
		}
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if nc, err := net.Dial("tcp", addr); err == nil {
		nc.Close()
		t.Error("a new connection was accepted while shutting down")
	}
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned %v with an exchange in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	resp = <-inflight
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "done /slow" || !resp.Close {
		t.Fatalf("in-flight reply: %d %q close=%t, want 200 \"done /slow\" and Connection: close", resp.StatusCode, body, resp.Close)
	}
	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n := len(srv.conns); n != 0 {
		t.Fatalf("%d connections left after Shutdown", n)
	}
}
