// Package link is the router→node hop of a cluster: pooled, long-lived
// TCP connections carrying length-prefixed binary frames, one exchange
// in flight per connection. It exists to take net/http's per-request
// machinery (Client.do, persistConn's two goroutines, conn.serve) off a
// path that sends the same few hundred bytes to the same three peers
// all day.
//
// Server is also every node's, router's and replay front's HTTP/1.1
// server (httpserver.go). It owns its listeners and serves each
// connection on one goroutine, one exchange at a time, straight to the
// node's outermost http.Handler; nothing of net/http's server runs. A
// link connection starts life as an HTTP/1.1 Upgrade on that same
// listener, so a cluster needs no second port and no new configuration.
// After the 101 the connection carries frames:
//
//	request   u32 n | u8 len, method | u16 len, uri | headers | body
//	response  u32 n | u16 status                    | headers | body
//	headers   u8 count, then per header: u8 len, name | u16 len, value
//
// n is the byte length of everything after it (little-endian, like the
// batch codec), at most MaxFrame; the body is whatever follows the
// headers. Each request frame is dispatched to the server's handler as
// an *http.Request — the same middleware chain an HTTP request crosses
// — and its buffered reply goes back as one response frame.
//
// The same connection pool (pool.go) carries the device fleet's plain
// HTTP/1.1 too: Transport is an http.RoundTripper that runs each
// exchange on the calling goroutine, for callers that have one request
// in flight at a time.
package link

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Protocol is the Upgrade token that opens a link connection.
const Protocol = "adprefetch-link/1"

// MaxFrame bounds a frame's payload. Nodes cap request bodies at 1 MiB;
// the headroom is for migration blobs travelling node→router.
const MaxFrame = 64 << 20

// readChunk is how far past the bytes actually received a frame buffer
// may grow: a hostile length prefix costs at most this much memory
// before the missing payload fails the read.
const readChunk = 64 << 10

// keepBuf is the largest per-connection buffer kept between exchanges;
// one huge frame must not pin its memory for the connection's lifetime.
const keepBuf = 256 << 10

var errFrame = errors.New("link: malformed frame")

// Header is one header field on the wire.
type Header struct{ Name, Value string }

// Response is a node's buffered reply.
type Response struct {
	Status int
	Header []Header
	Body   []byte

	arr [4]Header // backs Header for the usual handful of relayed fields
}

// Get returns the first value of the named header, "" when absent.
// Names are matched exactly: both ends use canonical MIME header keys.
func (r *Response) Get(name string) string {
	for _, h := range r.Header {
		if h.Name == name {
			return h.Value
		}
	}
	return ""
}

// readFrame reads one frame's payload into buf (reused across calls),
// growing it only as bytes arrive.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	var pfx [4]byte
	if _, err := io.ReadFull(br, pfx[:]); err != nil {
		return buf[:0], err
	}
	n := int(binary.LittleEndian.Uint32(pfx[:]))
	if n > MaxFrame {
		return buf[:0], fmt.Errorf("link: frame of %d bytes exceeds the %d limit", n, MaxFrame)
	}
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), readChunk)
		buf = slices.Grow(buf, step)
		if _, err := io.ReadFull(br, buf[len(buf):len(buf)+step]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf[:0], err
		}
		buf = buf[:len(buf)+step]
	}
	return buf, nil
}

// beginFrame resets dst to an empty frame: the length prefix is patched
// by endFrame once the payload is complete.
func beginFrame(dst []byte) []byte { return append(dst[:0], 0, 0, 0, 0) }

func endFrame(dst []byte) ([]byte, error) {
	n := len(dst) - 4
	if n > MaxFrame {
		return dst, fmt.Errorf("link: frame of %d bytes exceeds the %d limit", n, MaxFrame)
	}
	binary.LittleEndian.PutUint32(dst, uint32(n))
	return dst, nil
}

func appendHeader(dst []byte, name, value string) ([]byte, error) {
	if len(name) > 0xff || len(value) > 0xffff {
		return dst, fmt.Errorf("link: header %.32q does not fit a frame", name)
	}
	dst = append(dst, byte(len(name)))
	dst = append(dst, name...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(value)))
	return append(dst, value...), nil
}

// appendRequest encodes one request frame into dst.
func appendRequest(dst []byte, method, uri string, hdr []Header, body []byte) ([]byte, error) {
	if len(method) > 0xff || len(uri) > 0xffff || len(hdr) > 0xff {
		return dst, fmt.Errorf("link: request line or header count does not fit a frame")
	}
	dst = beginFrame(dst)
	dst = append(dst, byte(len(method)))
	dst = append(dst, method...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(uri)))
	dst = append(dst, uri...)
	dst = append(dst, byte(len(hdr)))
	for _, h := range hdr {
		var err error
		if dst, err = appendHeader(dst, h.Name, h.Value); err != nil {
			return dst, err
		}
	}
	return endFrame(append(dst, body...))
}

// frameReader walks one payload; every accessor fails closed on a short
// or inconsistent frame.
type frameReader struct {
	p   []byte
	bad bool
}

func (f *frameReader) take(n int) []byte {
	if f.bad || n > len(f.p) {
		f.bad = true
		return nil
	}
	b := f.p[:n]
	f.p = f.p[n:]
	return b
}

func (f *frameReader) u8() int {
	if b := f.take(1); b != nil {
		return int(b[0])
	}
	return 0
}

func (f *frameReader) u16() int {
	if b := f.take(2); b != nil {
		return int(binary.LittleEndian.Uint16(b))
	}
	return 0
}

// header reads one name/value pair; ok is false once the frame is bad.
func (f *frameReader) header() (name, value []byte, ok bool) {
	name = f.take(f.u8())
	value = f.take(f.u16())
	return name, value, !f.bad
}
