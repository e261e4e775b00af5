package link

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"time"

	"repro/internal/obs"
)

// Transport is the device fleet's HTTP/1.1 client: an http.RoundTripper
// that runs each exchange on the calling goroutine over the same pool
// the frame Client uses, keyed by host. It checks a keep-alive TCP
// connection out (dialing lazily), writes the request with
// (*http.Request).Write and one flush, and reads the reply with
// http.ReadResponse. The reply's body hands the connection back to the
// pool once read to EOF and closed, unless either side said
// Connection: close; a body closed early, or an error, closes it.
//
// It is what net/http's Transport does for a caller with one request in
// flight per connection, minus that Transport's per-connection read and
// write goroutines and their channel handoffs. It speaks plain http
// only: no TLS, no proxy, no compression (it never asks for gzip), no
// HTTP/2. It sets no deadline of its own; a request's context, when it
// can be cancelled (http.Client.Timeout sets one), bounds the dial and
// the whole exchange, body included. Safe for concurrent use.
type Transport struct {
	pool
}

// NewTransport builds an empty pool whose counters register on reg
// under the client_http_* names.
func NewTransport(reg *obs.Registry) *Transport {
	t := &Transport{}
	t.init(reg, "client_http", "HTTP connections", 0)
	t.addrOf = hostAddr
	return t
}

// CloseIdleConnections closes the pooled connections; one in flight
// returns to the pool as usual. The Transport stays usable.
func (t *Transport) CloseIdleConnections() { t.closeIdle(false) }

// hostAddr is the TCP address of a request URL's host.
func hostAddr(host string) (string, error) {
	u := url.URL{Host: host}
	if u.Hostname() == "" {
		return "", fmt.Errorf("link: request URL has no host")
	}
	if u.Port() == "" {
		return net.JoinHostPort(u.Hostname(), "80"), nil
	}
	return host, nil
}

// RoundTrip sends req and returns the reply's head; its body streams
// from the connection. A pooled connection that died while idle earns
// net/http's one transparent re-send on a fresh connection: only when
// the connection was reused, no reply byte arrived, and the request can
// be replayed — nothing of it was written and its body can be rewound,
// or it is idempotent (by method or by an Idempotency-Key header) with
// a rewindable body.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" {
		closeBody(req)
		return nil, fmt.Errorf("link: unsupported protocol scheme %q", req.URL.Scheme)
	}
	ctx := req.Context()
	cn, err := t.get(ctx, req.URL.Host)
	if err != nil {
		closeBody(req)
		return nil, err
	}
	stop := watch(ctx, cn)
	resp, replied, err := cn.roundTrip(req)
	if err != nil && !replied && idleDeath(cn, err) && stop() && replayable(req, cn.nwrite) {
		if req, err = rewind(req); err != nil {
			t.discard(cn)
			return nil, err
		}
		if cn, err = t.redial(ctx, cn); err != nil {
			closeBody(req)
			return nil, err
		}
		stop = watch(ctx, cn)
		resp, _, err = cn.roundTrip(req)
	}
	if err != nil {
		stop()
		t.discard(cn)
		return nil, err
	}
	resp.Body = &body{rc: resp.Body, t: t, cn: cn, stop: stop, keep: !resp.Close && !req.Close}
	return resp, nil
}

// roundTrip writes req on cn and reads the reply's head. replied
// reports that a reply byte arrived (the failure, if any, came later);
// cn.nwrite counts the request bytes that left.
func (cn *conn) roundTrip(req *http.Request) (resp *http.Response, replied bool, err error) {
	if cn.bw == nil {
		cn.bw = bufio.NewWriter(cn)
	}
	cn.nwrite = 0
	err = req.Write(cn.bw)
	if err == nil {
		err = cn.bw.Flush()
	}
	if err == nil {
		_, err = cn.br.Peek(1)
	}
	if err != nil {
		return nil, false, err
	}
	for {
		resp, err = http.ReadResponse(cn.br, req)
		// Skip informational replies (100 Continue, 103 Early Hints):
		// the real reply follows on the same connection.
		if err != nil || resp.StatusCode >= 200 || resp.StatusCode == http.StatusSwitchingProtocols {
			return resp, true, err
		}
	}
}

// replayable is net/http's rule for re-sending a request whose pooled
// connection turned out dead: nothing of it was written and its body
// can be rewound, or it is idempotent and its body can be rewound.
func replayable(req *http.Request, written int64) bool {
	rewindable := req.Body == nil || req.Body == http.NoBody || req.GetBody != nil
	if written == 0 || !rewindable {
		return rewindable
	}
	switch req.Method {
	case "", http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace:
		return true
	}
	_, key := req.Header["Idempotency-Key"]
	_, xkey := req.Header["X-Idempotency-Key"]
	return key || xkey
}

// rewind returns req ready to be written again: a shallow copy with a
// fresh body from GetBody (req itself when it has no body).
func rewind(req *http.Request) (*http.Request, error) {
	if req.Body == nil || req.Body == http.NoBody {
		return req, nil
	}
	b, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	r := *req
	r.Body = b
	return &r, nil
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// watch makes a cancellation of ctx end cn's exchange by expiring the
// connection's deadline. stop disarms it and reports whether it did so
// in time: false means the deadline may have fired, and cn must not be
// reused. A context that can never be cancelled costs nothing.
func watch(ctx context.Context, cn *conn) (stop func() bool) {
	if ctx.Done() == nil {
		return alwaysTrue
	}
	return context.AfterFunc(ctx, func() { cn.nc.SetDeadline(time.Unix(1, 0)) })
}

func alwaysTrue() bool { return true }

// body is a reply's body while it holds its connection: read to EOF
// and closed, it returns the connection to the pool (keep permitting);
// closed early or failed, it closes it.
type body struct {
	rc   io.ReadCloser
	t    *Transport
	cn   *conn // nil once closed
	stop func() bool
	keep bool
	eof  bool
	err  error
}

var errBodyClosed = errors.New("link: read on closed response body")

func (b *body) Read(p []byte) (int, error) {
	if b.cn == nil {
		return 0, errBodyClosed
	}
	if b.eof || b.err != nil {
		return 0, b.errOrEOF()
	}
	n, err := b.rc.Read(p)
	if err == io.EOF {
		b.eof = true
	} else if err != nil {
		b.err = err
	}
	return n, err
}

func (b *body) errOrEOF() error {
	if b.err != nil {
		return b.err
	}
	return io.EOF
}

func (b *body) Close() error {
	cn := b.cn
	if cn == nil {
		return nil
	}
	b.cn = nil
	if b.stop() && b.eof && b.keep {
		b.t.put(cn)
		return nil
	}
	if b.err != nil {
		b.t.discard(cn)
	} else {
		b.t.drop(cn)
	}
	return nil
}
