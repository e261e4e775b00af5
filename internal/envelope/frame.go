package envelope

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Binary frames. The JSON envelope dominates the serving hot path's
// allocation profile (field names, escaping, and a reflective marshal
// per envelope each way), so devices can opt into a length-prefixed
// binary frame for the same Msg / Reply values. Negotiation rides the
// protocol version header: a binary-capable client sends "1;bin" (the
// server ignores tokens it does not know) and a binary Content-Type on
// the envelope; the server answers in the request's codec, so plain-JSON
// clients are untouched. Decoded envelopes are value-identical across
// codecs, so everything past the wire bytes is codec-blind.
//
// Request frame (all integers little-endian):
//
//	magic "APB1" (or "APB2" when the envelope declares a tenant)
//	client  int64      envelope default client id
//	now_ns  int64      envelope default virtual timestamp
//	tenant  uint8 len + bytes   APB2 only: the envelope tenant id
//	nops    uint16
//	per op:
//	  kind    uint8    1=slot 2=report 3=ondemand 4=cancelled 5=bundle
//	  flags   uint8    1=has client override, 2=has now override, 4=no_rescue
//	  keyLen  uint8    idempotency key length (0 = unkeyed)
//	  key     bytes
//	  client  int64    present iff flag 1
//	  now_ns  int64    present iff flag 2
//	  kind-specific payload:
//	    report:    impression int64
//	    ondemand:  ncats uint8, then per category: len uint8 + bytes
//	    cancelled: nids uint16, then nids × int64
//	    slot, bundle: none
//
// Reply frame:
//
//	magic "APR1"
//	n uint16
//	per result:
//	  kind   uint8    op kind code (0 for unknown ops echoed from JSON)
//	  flags  uint8    1=replayed, 2=has retry_after
//	  status uint16   HTTP status of the sub-op
//	  retry_after uint16   present iff flag 2: a 429's hint in seconds
//	  len    uint32   body length
//	  body   bytes    error text when status >= 400, else the JSON reply
//
// Sub-op result bodies stay JSON on purpose: they are the dedup store's
// stored responses, byte-shared with the per-op endpoints, so a keyed op
// replays identically whichever codec (or per-op request) delivered it
// first.

// ContentType marks a binary batch envelope (request) or
// reply (response). The server answers in the codec the request used.
const ContentType = "application/x-adprefetch-batch"

var (
	binReqMagic = [4]byte{'A', 'P', 'B', '1'}
	// binReqMagic2 marks the tenant-carrying frame variant: identical to
	// APB1 except for a length-prefixed tenant id between now_ns and
	// nops. Emitted only when the envelope names a tenant, so legacy
	// devices and servers keep exchanging byte-identical APB1 frames.
	binReqMagic2 = [4]byte{'A', 'P', 'B', '2'}
	binRepMagic  = [4]byte{'A', 'P', 'R', '1'}
)

// Binary op-kind codes, in protocol order (Kinds).
const (
	binKindSlot      = 1
	binKindReport    = 2
	binKindOnDemand  = 3
	binKindCancelled = 4
	binKindBundle    = 5
)

// Per-op flag bits.
const (
	binFlagClient   = 1 // op overrides the envelope client
	binFlagNow      = 2 // op overrides the envelope timestamp
	binFlagNoRescue = 4 // ondemand: skip the rescue path
)

// Reply flag bits: 1 marks a result served from the idempotency window,
// 2 a retry_after hint after the status.
const binFlagReplayed, binFlagRetryAfter = 1, 2

func opKindCode(op string) uint8 {
	for i, k := range Kinds {
		if k == op {
			return uint8(i + 1)
		}
	}
	return 0
}

func opKindName(code uint8) string {
	if code == 0 || int(code) > len(Kinds) {
		return ""
	}
	return Kinds[code-1]
}

// IsBinary reports whether a Content-Type declares the binary
// envelope codec (parameters after ';' tolerated).
func IsBinary(contentType string) bool {
	ct := contentType
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == ContentType
}

// AppendMsg encodes an envelope into the binary request frame,
// appending to dst. Returns an error (and the partial dst) when a field
// exceeds the frame's length prefixes — keys and categories over 255
// bytes, more than 65535 ops or cancellation ids — which a conforming
// client never produces (the protocol caps keys at 128 bytes).
func AppendMsg(dst []byte, env Msg) ([]byte, error) {
	if len(env.Ops) > 0xFFFF {
		return dst, fmt.Errorf("binary batch: %d ops exceed the frame limit", len(env.Ops))
	}
	if len(env.Tenant) > 0xFF {
		return dst, fmt.Errorf("binary batch: %d-byte tenant exceeds the frame limit", len(env.Tenant))
	}
	if env.Tenant != "" {
		dst = append(dst, binReqMagic2[:]...)
	} else {
		dst = append(dst, binReqMagic[:]...)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(env.Client))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(env.NowNS))
	if env.Tenant != "" {
		dst = append(dst, uint8(len(env.Tenant)))
		dst = append(dst, env.Tenant...)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(env.Ops)))
	for _, op := range env.Ops {
		kind := opKindCode(op.Op)
		if kind == 0 {
			return dst, fmt.Errorf("binary batch: unknown op kind %q", op.Op)
		}
		if len(op.Key) > 0xFF {
			return dst, fmt.Errorf("binary batch: %d-byte key exceeds the frame limit", len(op.Key))
		}
		var flags uint8
		if op.Client != nil {
			flags |= binFlagClient
		}
		if op.NowNS != nil {
			flags |= binFlagNow
		}
		if op.NoRescue {
			flags |= binFlagNoRescue
		}
		dst = append(dst, kind, flags, uint8(len(op.Key)))
		dst = append(dst, op.Key...)
		if op.Client != nil {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(*op.Client))
		}
		if op.NowNS != nil {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(*op.NowNS))
		}
		switch kind {
		case binKindReport:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(op.Impression))
		case binKindOnDemand:
			if len(op.Categories) > 0xFF {
				return dst, fmt.Errorf("binary batch: %d categories exceed the frame limit", len(op.Categories))
			}
			dst = append(dst, uint8(len(op.Categories)))
			for _, c := range op.Categories {
				if len(c) > 0xFF {
					return dst, fmt.Errorf("binary batch: %d-byte category exceeds the frame limit", len(c))
				}
				dst = append(dst, uint8(len(c)))
				dst = append(dst, c...)
			}
		case binKindCancelled:
			if len(op.IDs) > 0xFFFF {
				return dst, fmt.Errorf("binary batch: %d ids exceed the frame limit", len(op.IDs))
			}
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(op.IDs)))
			for _, id := range op.IDs {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(id))
			}
		}
	}
	return dst, nil
}

// binCursor walks a binary frame with bounds checking. The first read
// past the end sets err and every read after it returns zero, so a
// decoder checks err where a garbage value would steer it (loop counts,
// kind dispatch) and once at the end, instead of after every field. No
// read panics (the decode surface is fuzzed).
type binCursor struct {
	data []byte
	off  int
	err  error
}

func (c *binCursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.data) {
		c.err = fmt.Errorf("binary batch: truncated at byte %d", c.off)
		return nil
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b
}

func (c *binCursor) u8() uint8 {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *binCursor) u16() uint16 {
	if b := c.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (c *binCursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *binCursor) i64() int64 {
	if b := c.take(8); b != nil {
		return int64(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// str reads an n-byte string, copying out of the frame (the request
// buffer is pooled and dies with the handler).
func (c *binCursor) str(n int) string { return string(c.take(n)) }

// end reports the walk's outcome: the first truncation, or bytes left
// over after a complete frame.
func (c *binCursor) end(what string) error {
	if c.err == nil && c.off != len(c.data) {
		c.err = fmt.Errorf("%s: %d trailing bytes", what, len(c.data)-c.off)
	}
	return c.err
}

// DecodeMsg parses a binary request frame. All strings are copied;
// the returned envelope does not alias data. Decoded envelopes are
// value-identical to what the JSON codec would have produced, so
// everything downstream (validation, fingerprints, WAL records) is
// codec-blind.
func DecodeMsg(data []byte) (Msg, error) {
	var env Msg
	c := &binCursor{data: data}
	magic := c.take(4)
	if c.err != nil {
		return env, c.err
	}
	tenanted := [4]byte(magic) == binReqMagic2
	if [4]byte(magic) != binReqMagic && !tenanted {
		return env, fmt.Errorf("binary batch: bad magic %q", magic)
	}
	env.Client = int(c.i64())
	env.NowNS = c.i64()
	if tenanted {
		env.Tenant = c.str(int(c.u8()))
	}
	nops := int(c.u16())
	if nops > 0 && c.err == nil {
		env.Ops = make([]Op, 0, nops)
	}
	for i := 0; i < nops && c.err == nil; i++ {
		var op Op
		kind := c.u8()
		if op.Op = opKindName(kind); op.Op == "" && c.err == nil {
			return env, fmt.Errorf("binary batch: unknown op kind %d", kind)
		}
		flags := c.u8()
		op.Key = c.str(int(c.u8()))
		if flags&binFlagClient != 0 {
			cl := int(c.i64())
			op.Client = &cl
		}
		if flags&binFlagNow != 0 {
			v := c.i64()
			op.NowNS = &v
		}
		op.NoRescue = flags&binFlagNoRescue != 0
		switch kind {
		case binKindReport:
			op.Impression = c.i64()
		case binKindOnDemand:
			ncats := int(c.u8())
			if ncats > 0 && c.err == nil {
				op.Categories = make([]string, 0, ncats)
			}
			for j := 0; j < ncats && c.err == nil; j++ {
				op.Categories = append(op.Categories, c.str(int(c.u8())))
			}
		case binKindCancelled:
			nids := int(c.u16())
			if nids > 0 && c.err == nil {
				op.IDs = make([]int64, 0, nids)
			}
			for j := 0; j < nids && c.err == nil; j++ {
				op.IDs = append(op.IDs, c.i64())
			}
		}
		env.Ops = append(env.Ops, op)
	}
	return env, c.end("binary batch")
}

// AppendReply encodes results into the binary reply frame,
// appending to dst. Result bodies and error texts over 4 GiB cannot
// occur (responses are bounded by the op reply types), so encoding
// never fails.
func AppendReply(dst []byte, results []Result) []byte {
	dst = append(dst, binRepMagic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(results)))
	for _, r := range results {
		var flags uint8
		if r.Replayed {
			flags |= binFlagReplayed
		}
		if r.RetryAfter > 0 {
			flags |= binFlagRetryAfter
		}
		dst = append(dst, opKindCode(r.Op), flags)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(r.Status))
		if r.RetryAfter > 0 {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(min(r.RetryAfter, 0xFFFF)))
		}
		body := []byte(r.Body)
		if r.Status >= 400 {
			body = []byte(r.Error)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
		dst = append(dst, body...)
	}
	return dst
}

// DecodeReply parses a binary reply frame; bodies are copied.
func DecodeReply(data []byte) (Reply, error) {
	var reply Reply
	c := &binCursor{data: data}
	magic := c.take(4)
	if c.err != nil {
		return reply, c.err
	}
	if [4]byte(magic) != binRepMagic {
		return reply, fmt.Errorf("binary batch reply: bad magic %q", magic)
	}
	n := int(c.u16())
	if n > 0 && c.err == nil {
		reply.Results = make([]Result, 0, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		var r Result
		r.Op = opKindName(c.u8())
		flags := c.u8()
		r.Replayed = flags&binFlagReplayed != 0
		r.Status = int(c.u16())
		if flags&binFlagRetryAfter != 0 {
			r.RetryAfter = int(c.u16())
		}
		body := c.take(int(c.u32()))
		if r.Status >= 400 {
			r.Error = string(body)
		} else if len(body) > 0 {
			r.Body = append([]byte(nil), body...)
		}
		reply.Results = append(reply.Results, r)
	}
	return reply, c.end("binary batch reply")
}
