package link

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"time"

	"repro/internal/obs"
)

// Client is the router's end of the link: a pool of upgraded
// connections per node base URL. Connections are dialed lazily, carry
// one exchange at a time, and go back to the pool after a clean
// exchange; any failure closes the connection. Safe for concurrent use.
type Client struct {
	pool  // its timeout also bounds each exchange
	relay []string
}

// NewClient builds an empty pool. timeout bounds one dial and one whole
// exchange (enforced as a connection deadline); relay lists, as
// canonical header keys, the response headers Do returns — the rest of
// a node's reply headers are skipped undecoded. The pool's counters
// register on reg under the cluster_link_* names.
func NewClient(reg *obs.Registry, timeout time.Duration, relay []string) *Client {
	c := &Client{relay: relay}
	c.init(reg, "cluster_link", "Link connections", timeout)
	c.addrOf, c.setup = dialAddr, c.upgrade
	return c
}

// Do sends one request to the node at base and returns its reply. An
// error means no complete reply arrived; the connection involved is
// gone. A pooled connection that turns out to have died while idle —
// the node restarted, nothing of a reply arrived, no deadline expired —
// costs one transparent re-send on a fresh connection, as net/http does
// for its own idle connections.
func (c *Client) Do(base, method, uri string, hdr []Header, body []byte) (*Response, error) {
	cn, err := c.get(context.Background(), base)
	if err != nil {
		return nil, err
	}
	resp, silent, err := cn.exchange(c.timeout, c.relay, method, uri, hdr, body)
	if err != nil && silent && idleDeath(cn, err) {
		if cn, err = c.redial(context.Background(), cn); err != nil {
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
func (c *Client) Forget(base string) { c.forget(base) }

// Close closes every pooled connection; a connection still in flight is
// closed when its exchange ends. Do fails from here on.
func (c *Client) Close() { c.closeIdle(true) }

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

// exchange runs one request/response on cn within timeout. silent
// reports a failure in sending the request or in awaiting the first
// byte of its reply: not one byte of a reply arrived.
func (cn *conn) exchange(timeout time.Duration, relay []string, method, uri string, hdr []Header, body []byte) (resp *Response, silent bool, err error) {
	if cn.wbuf, err = appendRequest(cn.wbuf, method, uri, hdr, body); err != nil {
		return nil, false, err
	}
	if cn.lastVal == nil {
		cn.lastVal = make([]string, len(relay))
	}
	if err = cn.nc.SetDeadline(time.Now().Add(timeout)); err == nil {
		_, err = cn.nc.Write(cn.wbuf)
	}
	if err == nil {
		_, err = cn.br.Peek(1)
	}
	if err != nil {
		return nil, true, err
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
