package link

import (
	"bufio"
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// maxIdlePerPeer bounds the pooled connections kept per peer; a burst
// wider than this dials extra connections and closes them afterwards.
const maxIdlePerPeer = 64

var errClosed = errors.New("link: client closed")

// pool is the one connection pool of both clients, the frame Client and
// the HTTP Transport: keep-alive TCP connections per peer, dialed
// lazily, carrying one exchange at a time, back in the pool after a
// clean exchange and closed after any failure. The two clients differ
// only in their exchange and in setup, the step that readies a freshly
// dialed connection (the frame Client's Upgrade; nothing for HTTP).
type pool struct {
	timeout time.Duration // bounds one dial (and setup); 0 = none
	addrOf  func(key string) (string, error)
	setup   func(nc net.Conn, br *bufio.Reader, addr string) error

	mu     sync.Mutex
	peers  map[string]*peer
	closed bool

	open    atomic.Int64
	dials   *obs.Counter
	redials *obs.Counter
	broken  *obs.Counter
}

// peer is the pool for one key. gone marks a pool that Forget or Close
// has retired: connections still out on an exchange are closed rather
// than returned to it.
type peer struct {
	addr string // host:port
	idle []*conn
	gone bool
}

// conn is one pooled connection with its reusable buffers: wbuf, rbuf
// and lastVal serve the frame exchange (lastVal caches the previous
// value of each relayed header so a steady stream of identical
// Content-Type/version values decodes without allocating), bw and
// nwrite the HTTP one.
type conn struct {
	nc     net.Conn
	peer   *peer
	br     *bufio.Reader
	reused bool

	wbuf    []byte
	rbuf    []byte
	lastVal []string

	bw     *bufio.Writer // writes to the conn itself, counting nwrite
	nwrite int64
}

// init readies an empty pool and registers its counters on reg as
// <prefix>_dials_total, <prefix>_redials_total, <prefix>_broken_total
// and the <prefix>_conns gauge; what (e.g. "Link connections") names
// the connections in their help text.
func (p *pool) init(reg *obs.Registry, prefix, what string, timeout time.Duration) {
	p.timeout = timeout
	p.peers = make(map[string]*peer)
	reg.SetHelp(prefix+"_dials_total", what+" dialed (attempts, including failed ones).")
	reg.SetHelp(prefix+"_redials_total", "Exchanges re-sent on a fresh connection because the pooled one had died while idle.")
	reg.SetHelp(prefix+"_broken_total", what+" dropped after a failed exchange.")
	reg.SetHelp(prefix+"_conns", "Open "+strings.ToLower(what)+" (pooled plus in flight).")
	p.dials = reg.Counter(prefix + "_dials_total")
	p.redials = reg.Counter(prefix + "_redials_total")
	p.broken = reg.Counter(prefix + "_broken_total")
	reg.GaugeFunc(prefix+"_conns", func() float64 { return float64(p.open.Load()) })
}

// get checks a connection to key out of its pool, dialing when empty;
// ctx bounds the dial.
func (p *pool) get(ctx context.Context, key string) (*conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errClosed
	}
	pr := p.peers[key]
	if pr == nil {
		addr, err := p.addrOf(key)
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		pr = &peer{addr: addr}
		p.peers[key] = pr
	}
	if k := len(pr.idle); k > 0 {
		cn := pr.idle[k-1]
		pr.idle = pr.idle[:k-1]
		p.mu.Unlock()
		cn.reused = true
		return cn, nil
	}
	p.mu.Unlock()
	return p.dial(ctx, pr)
}

// put returns a connection after a clean exchange. It is closed instead
// when its pool is gone (the client closed, the peer was forgotten) or
// full.
func (p *pool) put(cn *conn) {
	if cap(cn.wbuf) > keepBuf {
		cn.wbuf = nil
	}
	if cap(cn.rbuf) > keepBuf {
		cn.rbuf = nil
	}
	p.mu.Lock()
	if pr := cn.peer; !pr.gone && len(pr.idle) < maxIdlePerPeer {
		pr.idle = append(pr.idle, cn)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.drop(cn)
}

func (p *pool) drop(cn *conn) {
	cn.nc.Close()
	p.open.Add(-1)
}

// discard drops a connection whose exchange failed.
func (p *pool) discard(cn *conn) {
	p.broken.Inc()
	p.drop(cn)
}

// idleDeath is the one re-send rule's connection half: a failed
// exchange on cn looks like a connection that was already dead when
// checked out — it was pooled, not one byte of a reply arrived (the
// caller's to know), and no deadline expired.
func idleDeath(cn *conn, err error) bool {
	return cn.reused && !errors.Is(err, os.ErrDeadlineExceeded)
}

// redial drops cn, whose pooled connection died while idle, and dials
// its peer afresh for the one transparent re-send.
func (p *pool) redial(ctx context.Context, cn *conn) (*conn, error) {
	p.discard(cn)
	p.redials.Inc()
	return p.dial(ctx, cn.peer)
}

// dial opens a TCP connection to pr and readies it with setup.
func (p *pool) dial(ctx context.Context, pr *peer) (*conn, error) {
	p.dials.Inc()
	d := net.Dialer{Timeout: p.timeout}
	nc, err := d.DialContext(ctx, "tcp", pr.addr)
	if err != nil {
		return nil, err
	}
	cn := &conn{nc: nc, peer: pr, br: bufio.NewReader(nc)}
	if p.setup != nil {
		if err := p.setup(nc, cn.br, pr.addr); err != nil {
			nc.Close()
			return nil, err
		}
	}
	p.open.Add(1)
	return cn, nil
}

// forget closes the pooled connections to key and drops its pool.
func (p *pool) forget(key string) {
	p.mu.Lock()
	pr := p.peers[key]
	delete(p.peers, key)
	if pr != nil {
		pr.gone = true
	}
	p.mu.Unlock()
	if pr != nil {
		for _, cn := range pr.idle {
			p.drop(cn)
		}
	}
}

// closeIdle closes every pooled connection. With retire set the pool
// also refuses new exchanges from then on, and a connection still in
// flight is closed when its exchange ends; without, it is pooled as
// usual.
func (p *pool) closeIdle(retire bool) {
	p.mu.Lock()
	var idle []*conn
	for key, pr := range p.peers {
		idle = append(idle, pr.idle...)
		pr.idle = nil
		if retire {
			pr.gone = true
			delete(p.peers, key)
		}
	}
	p.closed = p.closed || retire
	p.mu.Unlock()
	for _, cn := range idle {
		p.drop(cn)
	}
}

// Write sends p on the connection, counting the bytes that left: the
// HTTP exchange writes through bw into here.
func (cn *conn) Write(p []byte) (int, error) {
	n, err := cn.nc.Write(p)
	cn.nwrite += int64(n)
	return n, err
}
