package transport

import (
	"bytes"
	"encoding/json"
	"strconv"

	"repro/internal/envelope"
)

// The reflection-free JSON codec for the device-facing wire values this
// package owns — the three POST bodies, the two GET request URIs, the
// op replies — under the contract internal/envelope/json.go states:
// encoders append exactly json.Marshal's bytes (or decline when a string
// would need an escape), decoders accept exactly that canonical
// rendering and decline everything else, whereupon encoding/json
// decides. The request renderers are reached through one table,
// opRequest (ops.go), which serves the device (what it sends) and
// opFingerprint (what a keyed op hashes as), so the two cannot drift.
//
// Three rules the call sites rely on:
//
//   - Size what you store. A keyed op's reply body lives in the dedup
//     window for a period or two, so the reply encoders count digits
//     first and allocate the rendered length: cap(body) == len(body),
//     as json.Marshal's exact-size copy always was.
//   - Copy what you keep. Request bodies live in bodyPool and die with
//     the handler; every string a decoder hands out is a copy (op kinds
//     are interned against envelope.Kinds).
//   - A reply's sub-bodies alias the one buffer the reply was read into;
//     they are decoded by value before the exchange returns.

// --- requests ---

func appendSlotMsg(dst []byte, client int, now int64) []byte {
	dst = append(dst, `{"client":`...)
	dst = strconv.AppendInt(dst, int64(client), 10)
	dst = append(dst, `,"now_ns":`...)
	dst = strconv.AppendInt(dst, now, 10)
	return append(dst, '}')
}

func appendReportMsg(dst []byte, client int, impression, now int64) []byte {
	dst = append(dst, `{"client":`...)
	dst = strconv.AppendInt(dst, int64(client), 10)
	dst = append(dst, `,"impression":`...)
	dst = strconv.AppendInt(dst, impression, 10)
	dst = append(dst, `,"now_ns":`...)
	dst = strconv.AppendInt(dst, now, 10)
	return append(dst, '}')
}

// appendOnDemandMsg declines (dst unchanged) when a category needs an
// escape.
func appendOnDemandMsg(dst []byte, m onDemandMsg) ([]byte, bool) {
	out := append(dst, `{"client":`...)
	out = strconv.AppendInt(out, int64(m.Client), 10)
	out = append(out, `,"now_ns":`...)
	out = strconv.AppendInt(out, m.NowNS, 10)
	if len(m.Categories) > 0 {
		out = append(out, `,"categories":[`...)
		for i, c := range m.Categories {
			if i > 0 {
				out = append(out, ',')
			}
			var ok bool
			if out, ok = envelope.AppendJSONString(out, c); !ok {
				return dst, false
			}
		}
		out = append(out, ']')
	}
	if m.NoRescue {
		out = append(out, `,"no_rescue":true`...)
	}
	return append(out, '}'), true
}

// onDemandBody renders the POST /v1/ondemand body into dst: the fast
// encoder's bytes, or json.Marshal's when a category needs an escape.
func onDemandBody(dst []byte, m onDemandMsg) []byte {
	if b, ok := appendOnDemandMsg(dst, m); ok {
		return b
	}
	b, _ := json.Marshal(m) // a struct of ints, bools and strings cannot fail
	return b
}

// appendBundleURI renders GET /v1/bundle's request URI, the bytes
// url.Values{"client", "now_ns"}.Encode() produced (keys sorted).
func appendBundleURI(dst []byte, client int, now int64) []byte {
	dst = append(dst, "/v1/bundle?client="...)
	dst = strconv.AppendInt(dst, int64(client), 10)
	dst = append(dst, "&now_ns="...)
	return strconv.AppendInt(dst, now, 10)
}

// appendCancelledURI renders GET /v1/cancelled's request URI as
// url.Values{"client", "ids", "now_ns"}.Encode() produced it: keys
// sorted, the id list's commas query-escaped.
func appendCancelledURI(dst []byte, client int, ids []int64, now int64) []byte {
	dst = append(dst, "/v1/cancelled?client="...)
	dst = strconv.AppendInt(dst, int64(client), 10)
	dst = append(dst, "&ids="...)
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, "%2C"...)
		}
		dst = strconv.AppendInt(dst, id, 10)
	}
	dst = append(dst, "&now_ns="...)
	return strconv.AppendInt(dst, now, 10)
}

func scanSlotMsg(b []byte) (slotMsg, bool) {
	var m slotMsg
	s := envelope.NewScanner(b)
	s.Lit(`{"client":`)
	m.Client = s.IntN()
	s.Lit(`,"now_ns":`)
	m.NowNS = s.Int()
	s.Lit("}")
	return m, s.End()
}

func scanReportMsg(b []byte) (reportMsg, bool) {
	var m reportMsg
	s := envelope.NewScanner(b)
	s.Lit(`{"client":`)
	m.Client = s.IntN()
	s.Lit(`,"impression":`)
	m.Impression = s.Int()
	s.Lit(`,"now_ns":`)
	m.NowNS = s.Int()
	s.Lit("}")
	return m, s.End()
}

func scanOnDemandMsg(b []byte) (onDemandMsg, bool) {
	var m onDemandMsg
	s := envelope.NewScanner(b)
	s.Lit(`{"client":`)
	m.Client = s.IntN()
	s.Lit(`,"now_ns":`)
	m.NowNS = s.Int()
	if s.Try(`,"categories":[`) {
		m.Categories = s.Strings()
	}
	if s.Try(`,"no_rescue":true`) {
		m.NoRescue = true
	}
	s.Lit("}")
	if !s.End() {
		return onDemandMsg{}, false
	}
	return m, true
}

// --- replies ---

// decLen is the number of decimal digits of u.
func decLen(u uint64) int {
	n := 1
	for p := uint64(10); u >= p && n < 20; p *= 10 {
		n++
	}
	return n
}

func intLen(v int64) int {
	if v < 0 {
		return 1 + decLen(-uint64(v))
	}
	return decLen(uint64(v))
}

// A nil list renders as null, like json.Marshal's.
func adMsgsLen(ads []AdMsg) int {
	if ads == nil {
		return len("null")
	}
	n := len("[]") + max(len(ads)-1, 0)
	for _, a := range ads {
		n += len(`{"id":,"deadline_ns":,"tie":}`) + intLen(a.ID) + intLen(a.DeadlineNS) + decLen(a.Tie)
	}
	return n
}

func appendAdMsgs(dst []byte, ads []AdMsg) []byte {
	if ads == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, a := range ads {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendInt(dst, a.ID, 10)
		dst = append(dst, `,"deadline_ns":`...)
		dst = strconv.AppendInt(dst, a.DeadlineNS, 10)
		dst = append(dst, `,"tie":`...)
		dst = strconv.AppendUint(dst, a.Tie, 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

func appendBundleReply(dst []byte, r BundleReply) []byte {
	dst = append(dst, `{"ads":`...)
	dst = appendAdMsgs(dst, r.Ads)
	return append(dst, '}')
}

func appendOnDemandReply(dst []byte, r OnDemandReply) []byte {
	dst = append(dst, `{"impression":`...)
	dst = strconv.AppendInt(dst, r.Impression, 10)
	dst = append(dst, `,"rescued":`...)
	dst = strconv.AppendBool(dst, r.Rescued)
	if len(r.TopUp) > 0 {
		dst = append(dst, `,"top_up":`...)
		dst = appendAdMsgs(dst, r.TopUp)
	}
	return append(dst, '}')
}

func appendCancelledReply(dst []byte, r CancelledReply) []byte {
	if r.Cancelled == nil {
		return append(dst, `{"cancelled":null}`...)
	}
	dst = append(dst, `{"cancelled":[`...)
	for i, id := range r.Cancelled {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, id, 10)
	}
	return append(dst, "]}"...)
}

// The reply bodies below are rendered into exactly the capacity they
// fill, trailing newline included: they are what the dedup window
// stores.

func bundleReplyBody(r BundleReply) []byte {
	if len(r.Ads) == 0 {
		return emptyBundleBody
	}
	b := make([]byte, 0, len(`{"ads":}`)+adMsgsLen(r.Ads)+1)
	return append(appendBundleReply(b, r), '\n')
}

func onDemandReplyBody(r OnDemandReply) []byte {
	if !r.Rescued && r.Impression == 0 && len(r.TopUp) == 0 {
		return houseAdBody
	}
	n := len(`{"impression":,"rescued":}`) + intLen(r.Impression) + len(strconv.FormatBool(r.Rescued)) + 1
	if len(r.TopUp) > 0 {
		n += len(`,"top_up":`) + adMsgsLen(r.TopUp)
	}
	return append(appendOnDemandReply(make([]byte, 0, n), r), '\n')
}

func cancelledReplyBody(r CancelledReply) []byte {
	n := len(`{"cancelled":null}`) + 1
	if r.Cancelled != nil {
		n = len(`{"cancelled":[]}`) + max(len(r.Cancelled)-1, 0) + 1
		for _, id := range r.Cancelled {
			n += intLen(id)
		}
	}
	return append(appendCancelledReply(make([]byte, 0, n), r), '\n')
}

// scanAdMsgs reads an ad list at the cursor: null, or a bracketed list.
func scanAdMsgs(s *envelope.Scanner) []AdMsg {
	if s.Try("null") {
		return nil
	}
	s.Lit("[")
	if s.Failed() {
		return nil
	}
	if s.Try("]") {
		return []AdMsg{}
	}
	// The hint is bounded by the reply already held in memory.
	ads := make([]AdMsg, 0, bytes.Count(s.Rest(), []byte(`{"id":`)))
	for !s.Failed() {
		var a AdMsg
		s.Lit(`{"id":`)
		a.ID = s.Int()
		s.Lit(`,"deadline_ns":`)
		a.DeadlineNS = s.Int()
		s.Lit(`,"tie":`)
		a.Tie = s.Uint()
		s.Lit("}")
		ads = append(ads, a)
		if !s.Try(",") {
			break
		}
	}
	s.Lit("]")
	return ads
}

// endReply closes a reply scan: the server ends a reply with one
// newline; a batch result's sub-body carries none.
func endReply(s *envelope.Scanner) bool {
	s.Try("\n")
	return s.End()
}

func scanAck(b []byte) bool {
	s := envelope.NewScanner(b)
	s.Lit("{}")
	return endReply(&s)
}

func scanBundleReply(b []byte) (BundleReply, bool) {
	var r BundleReply
	s := envelope.NewScanner(b)
	s.Lit(`{"ads":`)
	r.Ads = scanAdMsgs(&s)
	s.Lit("}")
	if !endReply(&s) {
		return BundleReply{}, false
	}
	return r, true
}

func scanOnDemandReply(b []byte) (OnDemandReply, bool) {
	var r OnDemandReply
	s := envelope.NewScanner(b)
	s.Lit(`{"impression":`)
	r.Impression = s.Int()
	if s.Try(`,"rescued":true`) {
		r.Rescued = true
	} else {
		s.Lit(`,"rescued":false`)
	}
	if s.Try(`,"top_up":`) {
		// omitempty: the canonical rendering never carries an empty list.
		if r.TopUp = scanAdMsgs(&s); len(r.TopUp) == 0 {
			s.Fail()
		}
	}
	s.Lit("}")
	if !endReply(&s) {
		return OnDemandReply{}, false
	}
	return r, true
}

func scanCancelledReply(b []byte) (CancelledReply, bool) {
	var r CancelledReply
	s := envelope.NewScanner(b)
	s.Lit(`{"cancelled":`)
	if !s.Try("null") {
		s.Lit("[")
		if s.Try("]") {
			r.Cancelled = []int64{}
		} else {
			r.Cancelled = s.Ints()
		}
	}
	s.Lit("}")
	if !endReply(&s) {
		return CancelledReply{}, false
	}
	return r, true
}

// scanReplyInto is the strict decoder behind the device's readers: it
// decodes a 200 reply body — a per-op endpoint's, or a batch result's
// sub-body — into out, one of the op reply types. false means declined
// (out is then zero, or of no type this codec knows).
func scanReplyInto(body []byte, out any) (ok bool) {
	switch out := out.(type) {
	case *struct{}:
		ok = scanAck(body)
	case *BundleReply:
		*out, ok = scanBundleReply(body)
	case *OnDemandReply:
		*out, ok = scanOnDemandReply(body)
	case *CancelledReply:
		*out, ok = scanCancelledReply(body)
	}
	return ok
}
