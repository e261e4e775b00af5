package envelope

import (
	"bytes"
	"math"
	"strconv"
)

// The JSON codec, reflection-free. encoding/json's rendering of the wire
// values is the wire format and stays the arbiter of it; this file is a
// second implementation of one narrow slice of that format, fast because
// it is narrow:
//
//   - An encoder appends exactly the bytes json.Marshal emits, or
//     declines (ok=false, dst unchanged) when a string would need an
//     escape; the caller then sends json.Marshal's bytes.
//   - A decoder is one strict pass over exactly the canonical rendering
//     — struct key order, no whitespace, escape-free printable-ASCII
//     strings, canonical in-range integers, omitempty fields absent
//     rather than zero — and declines anything else; the caller then
//     hands the same bytes to encoding/json, which decides value, error
//     and error text exactly as it always has.
//
// So the input's bytes pick the path, never an option, and no lenient,
// foreign or hostile input changes meaning. transport's
// FuzzWireJSONParity holds every strict decoder to "accepts ⇒
// reflect.DeepEqual to json.Unmarshal"; the seeded differentials here
// and there hold the encoders to json.Marshal byte for byte.

// plainByte reports whether json.Marshal copies c into a string literal
// unchanged: printable ASCII minus the quote, the backslash and the
// three characters it HTML-escapes.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// AppendJSONString appends s as a JSON string literal, declining when
// json.Marshal would escape any of it.
func AppendJSONString(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// AppendMsgJSON appends json.Marshal(m)'s bytes to dst, or declines.
func AppendMsgJSON(dst []byte, m *Msg) ([]byte, bool) {
	ok := true
	out := append(dst, `{"client":`...)
	out = strconv.AppendInt(out, int64(m.Client), 10)
	out = append(out, `,"now_ns":`...)
	out = strconv.AppendInt(out, m.NowNS, 10)
	if m.Tenant != "" {
		out = append(out, `,"tenant":`...)
		if out, ok = AppendJSONString(out, m.Tenant); !ok {
			return dst, false
		}
	}
	if m.Ops == nil {
		return append(out, `,"ops":null}`...), true
	}
	out = append(out, `,"ops":[`...)
	for i := range m.Ops {
		if i > 0 {
			out = append(out, ',')
		}
		if out, ok = appendOpJSON(out, &m.Ops[i]); !ok {
			return dst, false
		}
	}
	return append(out, "]}"...), true
}

// appendOpJSON returns a half-written dst when it declines.
func appendOpJSON(dst []byte, op *Op) ([]byte, bool) {
	ok := true
	dst = append(dst, `{"op":`...)
	if dst, ok = AppendJSONString(dst, op.Op); !ok {
		return dst, false
	}
	if op.Key != "" {
		dst = append(dst, `,"key":`...)
		if dst, ok = AppendJSONString(dst, op.Key); !ok {
			return dst, false
		}
	}
	if op.Client != nil {
		dst = append(dst, `,"client":`...)
		dst = strconv.AppendInt(dst, int64(*op.Client), 10)
	}
	if op.NowNS != nil {
		dst = append(dst, `,"now_ns":`...)
		dst = strconv.AppendInt(dst, *op.NowNS, 10)
	}
	if op.Impression != 0 {
		dst = append(dst, `,"impression":`...)
		dst = strconv.AppendInt(dst, op.Impression, 10)
	}
	if len(op.Categories) > 0 {
		dst = append(dst, `,"categories":[`...)
		for i, c := range op.Categories {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, ok = AppendJSONString(dst, c); !ok {
				return dst, false
			}
		}
		dst = append(dst, ']')
	}
	if op.NoRescue {
		dst = append(dst, `,"no_rescue":true`...)
	}
	if len(op.IDs) > 0 {
		dst = append(dst, `,"ids":[`...)
		for i, id := range op.IDs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, id, 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), true
}

// AppendReplyJSON appends json.Marshal(Reply{Results: results})'s bytes
// to dst, or declines. A Result.Body is appended verbatim, which is what
// json.Marshal does with a json.RawMessage that is valid compact JSON
// free of HTML characters; bodies that could be anything else (any
// whitespace, escape or non-ASCII byte) decline. Validity itself is the
// caller's invariant: bodies are stored responses this codec or
// json.Marshal rendered.
func AppendReplyJSON(dst []byte, results []Result) ([]byte, bool) {
	if results == nil {
		return append(dst, `{"results":null}`...), true
	}
	out := append(dst, `{"results":[`...)
	ok := true
	for i := range results {
		r := &results[i]
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, `{"op":`...)
		if out, ok = AppendJSONString(out, r.Op); !ok {
			return dst, false
		}
		out = append(out, `,"status":`...)
		out = strconv.AppendInt(out, int64(r.Status), 10)
		if r.Replayed {
			out = append(out, `,"replayed":true`...)
		}
		if r.Error != "" {
			out = append(out, `,"error":`...)
			if out, ok = AppendJSONString(out, r.Error); !ok {
				return dst, false
			}
		}
		if r.RetryAfter != 0 {
			out = append(out, `,"retry_after":`...)
			out = strconv.AppendInt(out, int64(r.RetryAfter), 10)
		}
		if len(r.Body) > 0 {
			for _, c := range r.Body {
				if c == ' ' || !plainByte(c) && c != '"' {
					return dst, false
				}
			}
			out = append(out, `,"body":`...)
			out = append(out, r.Body...)
		}
		out = append(out, '}')
	}
	return append(out, "]}"...), true
}

// Scanner is the strict decoder's cursor over one JSON document. Like
// the binary frame's cursor, the first mismatch sets a sticky failure
// and every read after it is a no-op returning zero, so a decoder reads
// straight through and asks End once. Nothing it returns is copied:
// Str and Value alias the input.
type Scanner struct {
	data []byte
	off  int
	bad  bool
}

// NewScanner starts a strict scan of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// Fail declines the document.
func (s *Scanner) Fail() { s.bad = true }

// Failed reports whether the scan has declined.
func (s *Scanner) Failed() bool { return s.bad }

// End reports whether the whole input was consumed without a mismatch.
func (s *Scanner) End() bool { return !s.bad && s.off == len(s.data) }

// Rest returns the unread input (for sizing hints).
func (s *Scanner) Rest() []byte { return s.data[s.off:] }

// Try consumes lit if the input continues with it.
func (s *Scanner) Try(lit string) bool {
	if s.bad || len(s.data)-s.off < len(lit) || string(s.data[s.off:s.off+len(lit)]) != lit {
		return false
	}
	s.off += len(lit)
	return true
}

// Lit consumes lit or declines.
func (s *Scanner) Lit(lit string) {
	if !s.Try(lit) {
		s.bad = true
	}
}

// digits consumes a canonical run of decimal digits — "0", or a
// non-zero digit followed by more — and returns it.
func (s *Scanner) digits() []byte {
	if s.bad {
		return nil
	}
	start := s.off
	for s.off < len(s.data) && s.data[s.off] >= '0' && s.data[s.off] <= '9' {
		s.off++
	}
	d := s.data[start:s.off]
	if len(d) == 0 || (d[0] == '0' && len(d) > 1) {
		s.bad = true
		return nil
	}
	return d
}

// Uint reads a canonical unsigned decimal that fits a uint64.
func (s *Scanner) Uint() uint64 {
	d := s.digits()
	if len(d) > 20 {
		s.bad = true
		return 0
	}
	var u uint64
	for _, c := range d {
		v := uint64(c - '0')
		if u > (math.MaxUint64-v)/10 {
			s.bad = true
			return 0
		}
		u = u*10 + v
	}
	return u
}

// Int reads a canonical signed decimal that fits an int64; "-0" is not
// canonical.
func (s *Scanner) Int() int64 {
	neg := s.Try("-")
	u := s.Uint()
	if neg {
		if u == 0 || u > 1<<63 {
			s.bad = true
			return 0
		}
		return -int64(u)
	}
	if u > math.MaxInt64 {
		s.bad = true
		return 0
	}
	return int64(u)
}

// IntN is Int for a Go int field.
func (s *Scanner) IntN() int {
	v := s.Int()
	if int64(int(v)) != v {
		s.bad = true
		return 0
	}
	return int(v)
}

// Str reads a string literal with nothing to unescape and returns its
// contents, aliasing the input.
func (s *Scanner) Str() []byte {
	if !s.Try(`"`) {
		s.bad = true
		return nil
	}
	start := s.off
	for s.off < len(s.data) && plainByte(s.data[s.off]) {
		s.off++
	}
	b := s.data[start:s.off]
	s.Lit(`"`)
	if s.bad {
		return nil
	}
	return b
}

// nonEmpty is Str for an omitempty string field, whose canonical
// rendering is never "".
func (s *Scanner) nonEmpty() []byte {
	b := s.Str()
	if len(b) == 0 {
		s.bad = true
	}
	return b
}

// maxHint caps every capacity the decoders derive from undecoded input,
// so a hostile document cannot buy a large allocation before it
// declines.
const maxHint = 128

// listHint bounds how many elements the list the cursor is inside can
// hold: one more than the commas before its closing bracket.
func (s *Scanner) listHint() int {
	rest := s.Rest()
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return min(1+bytes.Count(rest, []byte{','}), maxHint)
}

// Ints reads the elements of a non-empty integer list whose opening
// bracket has been consumed, through its closing bracket.
func (s *Scanner) Ints() []int64 {
	if s.bad {
		return nil
	}
	list := make([]int64, 0, s.listHint())
	for !s.bad {
		list = append(list, s.Int())
		if !s.Try(",") {
			break
		}
	}
	s.Lit("]")
	return list
}

// Strings is Ints for a list of strings, each copied out of the input.
func (s *Scanner) Strings() []string {
	if s.bad {
		return nil
	}
	list := make([]string, 0, s.listHint())
	for !s.bad {
		list = append(list, string(s.Str()))
		if !s.Try(",") {
			break
		}
	}
	s.Lit("]")
	return list
}

// maxValueDepth bounds Value's recursion; the reply bodies the protocol
// carries nest three deep.
const maxValueDepth = 8

// Value reads one JSON value in the strict form — objects, arrays,
// escape-free strings, canonical integers of any length, true, false,
// null; no whitespace, no fractions or exponents — and returns its
// bytes, aliasing the input.
func (s *Scanner) Value() []byte {
	start := s.off
	s.value(0)
	if s.bad {
		return nil
	}
	return s.data[start:s.off]
}

func (s *Scanner) value(depth int) {
	if s.bad || s.off >= len(s.data) || depth > maxValueDepth {
		s.bad = true
		return
	}
	switch c := s.data[s.off]; {
	case c == '{':
		s.off++
		if s.Try("}") {
			return
		}
		for !s.bad {
			s.Str()
			s.Lit(":")
			s.value(depth + 1)
			if !s.Try(",") {
				break
			}
		}
		s.Lit("}")
	case c == '[':
		s.off++
		if s.Try("]") {
			return
		}
		for !s.bad {
			s.value(depth + 1)
			if !s.Try(",") {
				break
			}
		}
		s.Lit("]")
	case c == '"':
		s.Str()
	case c == '-':
		s.off++
		if d := s.digits(); len(d) == 1 && d[0] == '0' {
			s.bad = true
		}
	case c >= '0' && c <= '9':
		s.digits()
	default:
		if !s.Try("true") && !s.Try("false") && !s.Try("null") {
			s.bad = true
		}
	}
}

// kindOf interns an op kind against Kinds — the scanned bytes belong to
// a request buffer that dies with its handler — and copies any other.
func kindOf(b []byte) string {
	for _, k := range Kinds {
		if string(b) == k {
			return k
		}
	}
	return string(b)
}

// ScanMsg is the strict decoder for a JSON envelope: it accepts exactly
// what AppendMsgJSON renders (for a non-nil Ops) and declines everything
// else. Every string it keeps is interned or copied; the envelope does
// not alias data.
func ScanMsg(data []byte) (Msg, bool) {
	var m Msg
	s := NewScanner(data)
	s.Lit(`{"client":`)
	m.Client = s.IntN()
	s.Lit(`,"now_ns":`)
	m.NowNS = s.Int()
	if s.Try(`,"tenant":`) {
		m.Tenant = string(s.nonEmpty())
	}
	s.Lit(`,"ops":[`)
	if s.Try("]") {
		m.Ops = []Op{}
	} else if !s.bad {
		hint := min(bytes.Count(s.Rest(), []byte(`{"op":"`)), maxHint)
		m.Ops = make([]Op, 0, hint)
		// Timestamp overrides (a device pins one on every op) share one
		// backing array instead of costing an allocation each.
		var nows []int64
		for !s.bad {
			m.Ops = append(m.Ops, Op{})
			op := &m.Ops[len(m.Ops)-1]
			s.Lit(`{"op":`)
			op.Op = kindOf(s.Str())
			if s.Try(`,"key":`) {
				op.Key = string(s.nonEmpty())
			}
			if s.Try(`,"client":`) {
				c := s.IntN()
				op.Client = &c
			}
			if s.Try(`,"now_ns":`) {
				if nows == nil {
					nows = make([]int64, 0, hint)
				}
				nows = append(nows, s.Int())
				op.NowNS = &nows[len(nows)-1]
			}
			if s.Try(`,"impression":`) {
				if op.Impression = s.Int(); op.Impression == 0 {
					s.bad = true
				}
			}
			if s.Try(`,"categories":[`) {
				op.Categories = s.Strings()
			}
			if s.Try(`,"no_rescue":true`) {
				op.NoRescue = true
			}
			if s.Try(`,"ids":[`) {
				op.IDs = s.Ints()
			}
			s.Lit("}")
			if !s.Try(",") {
				break
			}
		}
		s.Lit("]")
	}
	s.Lit("}")
	if !s.End() {
		return Msg{}, false
	}
	return m, true
}

// ScanReply is the strict decoder for a JSON batch reply: exactly what
// AppendReplyJSON renders (for non-nil results), optionally followed by
// the one newline the server ends its replies with. Op kinds are
// interned and error texts copied; each Result.Body aliases data, so the
// caller owns data for as long as it reads the bodies.
func ScanReply(data []byte) (Reply, bool) {
	var reply Reply
	s := NewScanner(data)
	s.Lit(`{"results":[`)
	if s.Try("]") {
		reply.Results = []Result{}
	} else if !s.bad {
		reply.Results = make([]Result, 0, min(bytes.Count(s.Rest(), []byte(`{"op":"`)), maxHint))
		for !s.bad {
			reply.Results = append(reply.Results, Result{})
			r := &reply.Results[len(reply.Results)-1]
			s.Lit(`{"op":`)
			r.Op = kindOf(s.Str())
			s.Lit(`,"status":`)
			r.Status = s.IntN()
			if s.Try(`,"replayed":true`) {
				r.Replayed = true
			}
			if s.Try(`,"error":`) {
				r.Error = string(s.nonEmpty())
			}
			if s.Try(`,"retry_after":`) {
				if r.RetryAfter = s.IntN(); r.RetryAfter == 0 {
					s.Fail() // omitempty never renders a zero
				}
			}
			if s.Try(`,"body":`) {
				r.Body = s.Value()
			}
			s.Lit("}")
			if !s.Try(",") {
				break
			}
		}
		s.Lit("]")
	}
	s.Lit("}")
	s.Try("\n")
	if !s.End() {
		return Reply{}, false
	}
	return reply, true
}
