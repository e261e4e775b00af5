package link

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// maxIdlePerPeer bounds the pooled connections kept per node; a burst
// wider than this dials extra connections and closes them afterwards.
const maxIdlePerPeer = 64

var errClosed = errors.New("link: client closed")

// Client is the router's end of the link: a pool of upgraded
// connections per node base URL. Connections are dialed lazily, carry
// one exchange at a time, and go back to the pool after a clean
// exchange; any failure closes the connection. Safe for concurrent use.
type Client struct {
	timeout time.Duration
	relay   []string

	mu     sync.Mutex
	peers  map[string]*peer
	closed bool

	open    atomic.Int64
	dials   *obs.Counter
	redials *obs.Counter
	broken  *obs.Counter
}

// peer is the pool for one base URL. gone marks a pool that Forget or
// Close has retired: connections still out on an exchange are closed
// rather than returned to it.
type peer struct {
	addr string // host:port
	idle []*conn
	gone bool
}

// conn is one upgraded connection with its reusable buffers. lastVal
// caches the previous value of each relayed header so a steady stream of
// identical Content-Type/version values decodes without allocating.
type conn struct {
	nc      net.Conn
	peer    *peer
	br      *bufio.Reader
	wbuf    []byte
	rbuf    []byte
	lastVal []string
	reused  bool
}

// NewClient builds an empty pool. timeout bounds one dial and one whole
// exchange (enforced as a connection deadline); relay lists, as
// canonical header keys, the response headers Do returns — the rest of
// a node's reply headers are skipped undecoded. The pool's counters
// register on reg under the cluster_link_* names.
func NewClient(reg *obs.Registry, timeout time.Duration, relay []string) *Client {
	c := &Client{timeout: timeout, relay: relay, peers: make(map[string]*peer)}
	reg.SetHelp("cluster_link_dials_total", "Link connections dialed (attempts, including failed ones).")
	reg.SetHelp("cluster_link_redials_total", "Exchanges re-sent on a fresh connection because the pooled one had died while idle.")
	reg.SetHelp("cluster_link_broken_total", "Link connections dropped after a failed exchange.")
	reg.SetHelp("cluster_link_conns", "Open link connections (pooled plus in flight).")
	c.dials = reg.Counter("cluster_link_dials_total")
	c.redials = reg.Counter("cluster_link_redials_total")
	c.broken = reg.Counter("cluster_link_broken_total")
	reg.GaugeFunc("cluster_link_conns", func() float64 { return float64(c.open.Load()) })
	return c
}

// Do sends one request to the node at base and returns its reply. An
// error means no complete reply arrived; the connection involved is
// gone. A pooled connection that turns out to have died while idle —
// the node restarted, nothing of a reply arrived, no deadline expired —
// costs one transparent re-send on a fresh connection, as net/http does
// for its own idle connections.
func (c *Client) Do(base, method, uri string, hdr []Header, body []byte) (*Response, error) {
	cn, err := c.get(base)
	if err != nil {
		return nil, err
	}
	resp, idleDeath, err := cn.exchange(c.timeout, c.relay, method, uri, hdr, body)
	if err != nil && cn.reused && idleDeath {
		c.discard(cn)
		c.redials.Inc()
		if cn, err = c.dial(cn.peer); err != nil {
			return nil, err
		}
		resp, _, err = cn.exchange(c.timeout, c.relay, method, uri, hdr, body)
	}
	if err != nil {
		c.discard(cn)
		return nil, err
	}
	c.put(cn)
	return resp, nil
}

// Forget closes the pooled connections to base and drops its pool: the
// node there was replaced or removed.
func (c *Client) Forget(base string) {
	c.mu.Lock()
	p := c.peers[base]
	delete(c.peers, base)
	if p != nil {
		p.gone = true
	}
	c.mu.Unlock()
	if p != nil {
		for _, cn := range p.idle {
			c.drop(cn)
		}
	}
}

// Close closes every pooled connection; a connection still in flight is
// closed when its exchange ends. Do fails from here on.
func (c *Client) Close() {
	c.mu.Lock()
	peers := c.peers
	c.peers, c.closed = nil, true
	for _, p := range peers {
		p.gone = true
	}
	c.mu.Unlock()
	for _, p := range peers {
		for _, cn := range p.idle {
			c.drop(cn)
		}
	}
}

// get checks a connection to base out of its pool, dialing when empty.
func (c *Client) get(base string) (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClosed
	}
	p := c.peers[base]
	if p == nil {
		addr, err := dialAddr(base)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		p = &peer{addr: addr}
		c.peers[base] = p
	}
	if k := len(p.idle); k > 0 {
		cn := p.idle[k-1]
		p.idle = p.idle[:k-1]
		c.mu.Unlock()
		cn.reused = true
		return cn, nil
	}
	c.mu.Unlock()
	return c.dial(p)
}

// put returns a connection after a clean exchange. It is closed instead
// when its pool is gone (the client closed, the base was forgotten) or
// full.
func (c *Client) put(cn *conn) {
	if cap(cn.wbuf) > keepBuf {
		cn.wbuf = nil
	}
	if cap(cn.rbuf) > keepBuf {
		cn.rbuf = nil
	}
	c.mu.Lock()
	if p := cn.peer; !p.gone && len(p.idle) < maxIdlePerPeer {
		p.idle = append(p.idle, cn)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.drop(cn)
}

func (c *Client) drop(cn *conn) {
	cn.nc.Close()
	c.open.Add(-1)
}

// discard drops a connection whose exchange failed.
func (c *Client) discard(cn *conn) {
	c.broken.Inc()
	c.drop(cn)
}

// dialAddr extracts the TCP address from a node base URL.
func dialAddr(base string) (string, error) {
	u, err := url.Parse(base)
	if err != nil {
		return "", fmt.Errorf("link: node URL %q: %w", base, err)
	}
	if u.Scheme != "http" || u.Host == "" || (u.Path != "" && u.Path != "/") {
		return "", fmt.Errorf("link: node URL %q: want http://host:port", base)
	}
	if u.Port() == "" {
		return net.JoinHostPort(u.Hostname(), "80"), nil
	}
	return u.Host, nil
}

// dial opens a TCP connection to p's node and upgrades it.
func (c *Client) dial(p *peer) (*conn, error) {
	c.dials.Inc()
	nc, err := net.DialTimeout("tcp", p.addr, c.timeout)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(nc)
	if err := c.upgrade(nc, br, p.addr); err != nil {
		nc.Close()
		return nil, err
	}
	c.open.Add(1)
	return &conn{nc: nc, peer: p, br: br, lastVal: make([]string, len(c.relay))}, nil
}

func (c *Client) upgrade(nc net.Conn, br *bufio.Reader, addr string) error {
	if err := nc.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return err
	}
	if _, err := io.WriteString(nc, "GET /v1/link HTTP/1.1\r\nHost: "+addr+
		"\r\nConnection: Upgrade\r\nUpgrade: "+Protocol+"\r\n\r\n"); err != nil {
		return err
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return fmt.Errorf("link: upgrade reply from %s: %w", addr, err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != Protocol {
		return fmt.Errorf("link: node at %s refused the upgrade (%s)", addr, resp.Status)
	}
	return nil
}

// exchange runs one request/response on cn within timeout. idleDeath
// reports that a failure looks like a connection that was already dead
// when checked out: not one byte of a reply, and no deadline expired.
func (cn *conn) exchange(timeout time.Duration, relay []string, method, uri string, hdr []Header, body []byte) (resp *Response, idleDeath bool, err error) {
	if cn.wbuf, err = appendRequest(cn.wbuf, method, uri, hdr, body); err != nil {
		return nil, false, err
	}
	if err = cn.nc.SetDeadline(time.Now().Add(timeout)); err == nil {
		_, err = cn.nc.Write(cn.wbuf)
	}
	if err == nil {
		_, err = cn.br.Peek(1)
	}
	if err != nil {
		return nil, !errors.Is(err, os.ErrDeadlineExceeded), err
	}
	if cn.rbuf, err = readFrame(cn.br, cn.rbuf); err != nil {
		return nil, false, err
	}
	resp, err = cn.parseResponse(relay)
	return resp, false, err
}

// parseResponse decodes cn.rbuf, copying out everything the Response
// keeps (the buffer is reused by the next exchange). Only headers named
// in relay are decoded.
func (cn *conn) parseResponse(relay []string) (*Response, error) {
	f := frameReader{p: cn.rbuf}
	resp := &Response{Status: f.u16()}
	resp.Header = resp.arr[:0]
	for n := f.u8(); n > 0; n-- {
		name, value, ok := f.header()
		if !ok {
			return nil, errFrame
		}
		for i, want := range relay {
			if string(name) == want {
				if cn.lastVal[i] != string(value) {
					cn.lastVal[i] = string(value)
				}
				resp.Header = append(resp.Header, Header{want, cn.lastVal[i]})
				break
			}
		}
	}
	if f.bad {
		return nil, errFrame
	}
	resp.Body = append([]byte(nil), f.p...)
	return resp, nil
}
