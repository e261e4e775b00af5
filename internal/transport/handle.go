package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// Protocol versioning. Every client request carries
// X-AdPrefetch-Version; the server echoes its own version on every
// response and answers 426 Upgrade Required when a client speaks a
// different major version (the protocol has no minor versions yet — the
// header value is the bare major number). Requests without the header
// (curl, scrapers, pre-versioning clients) are accepted.
const (
	// VersionHeader carries the protocol major version on requests and
	// responses: X-AdPrefetch-Version, spelled here in the canonical
	// MIME form net/http puts on the wire and keys its header maps by,
	// so reading or assigning it never re-canonicalizes.
	VersionHeader = "X-Adprefetch-Version"
	// ProtocolVersion is the major version this package speaks.
	ProtocolVersion = 1
)

// Header values that never vary are shared slices assigned straight
// into the header map (Header.Set allocates a fresh one per call).
// net/http only reads them; nothing may append to or mutate them.
var (
	versionValue    = []string{strconv.Itoa(ProtocolVersion)}
	versionBinValue = []string{strconv.Itoa(ProtocolVersion) + ";" + binVersionToken}
	jsonContentType = []string{"application/json"}
	binContentType  = []string{BinaryBatchContentType}
	textContentType = []string{"text/plain; charset=utf-8"}
	replayedValue   = []string{"true"}
)

// httpError is a handler-level protocol failure: a status code and a
// plain-text message. nil means success. retryAfter, when positive,
// overrides the Retry-After hint a 429 carries — the shed paths scale
// it with pressure (see retryAfterSecs) instead of a flat second.
type httpError struct {
	status     int
	msg        string
	retryAfter int
}

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// handle is the generic pipeline of every /v1/* endpoint that is neither
// a device op (those are one-op envelopes, see ops.go) nor a period
// round (handlePeriod): decode the request, execute, encode the reply.
// decode returning ok=false means it already wrote a 4xx.
func handle[Req, Resp any](
	decode func(w http.ResponseWriter, r *http.Request) (Req, []byte, bool),
	exec func(req Req) (Resp, *httpError),
) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, payload, ok := decode(w, r)
		if !ok {
			return
		}
		defer putBodyBuf(payload)
		resp, herr := exec(req)
		if herr != nil {
			http.Error(w, herr.msg, herr.status)
			return
		}
		writeJSON(w, resp)
	}
}

// jsonReq decodes a bounded JSON body into Req, returning the raw bytes
// for idempotency fingerprinting.
func jsonReq[Req any](w http.ResponseWriter, r *http.Request) (Req, []byte, bool) {
	var req Req
	body, ok := readBody(w, r)
	if !ok {
		return req, nil, false
	}
	if !decodeBytes(w, body, &req) {
		return req, nil, false
	}
	return req, body, true
}

// scanReq is jsonReq for the three device POST bodies: the strict
// scanner decodes the canonical rendering the shipped client sends;
// any other bytes are counted and handed to encoding/json, which
// decides value, status and error text as it always has.
func scanReq[Req any](s *ShardedServer, w http.ResponseWriter, r *http.Request, scan func([]byte) (Req, bool)) (Req, []byte, bool) {
	body, ok := readBody(w, r)
	if !ok {
		var zero Req
		return zero, nil, false
	}
	req, ok := scan(body)
	if !ok {
		s.wireFallback.Inc()
		var slow Req // escapes into json.Unmarshal's any: allocated on this path only
		if !decodeBytes(w, body, &slow) {
			return slow, nil, false
		}
		req = slow
	}
	return req, body, true
}

// noReq is the decoder for endpoints without request content (ledger,
// stats, health).
func noReq(http.ResponseWriter, *http.Request) (struct{}, []byte, bool) {
	return struct{}{}, nil, true
}

// versionMiddleware enforces the protocol version contract: the
// server's version is echoed on every response (including errors), and
// a request declaring a different major version is refused with 426
// before any handler state changes. Malformed version headers are 400s.
// The major may be followed by ';'-separated capability tokens (e.g.
// "1;bin" from binary-batch clients); unknown tokens are ignored and
// the echo stays the bare major, so capability negotiation can evolve
// without another version bump.
func versionMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()[VersionHeader] = versionValue
		if raw := r.Header.Get(VersionHeader); raw != "" {
			major := raw
			if i := strings.IndexByte(major, ';'); i >= 0 {
				major = major[:i]
			}
			got, err := strconv.Atoi(major)
			if err != nil {
				http.Error(w, fmt.Sprintf("malformed %s %q", VersionHeader, raw), http.StatusBadRequest)
				return
			}
			if got != ProtocolVersion {
				http.Error(w, fmt.Sprintf("protocol version %d not supported; server speaks %d", got, ProtocolVersion),
					http.StatusUpgradeRequired)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// bodyPool recycles request-body buffers across requests. A pooled
// buffer is valid only until its handler returns: the idempotency path
// hashes the bytes, and the decoders — the strict scanners as much as
// json.Unmarshal — copy every string they keep, so nothing outlives the
// request.
var bodyPool sync.Pool // holds *[]byte

func getBodyBuf() []byte {
	if p, _ := bodyPool.Get().(*[]byte); p != nil {
		return (*p)[:0]
	}
	return make([]byte, 0, 2048)
}

// putBodyBuf returns a request buffer to the pool. Tolerates non-pooled
// slices (query-derived payloads) — any heap slice makes fine scratch —
// and drops outliers so one huge envelope cannot pin a megabyte.
func putBodyBuf(b []byte) {
	if cap(b) < 64 || cap(b) > 1<<18 {
		return
	}
	b = b[:0]
	bodyPool.Put(&b)
}

// readBody slurps a bounded request body into a pooled buffer so
// handlers can hash it for idempotency before decoding. Returns false
// after writing a 4xx. The caller owns the buffer and releases it with
// putBodyBuf once the response is written.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	lr := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	buf := getBodyBuf()
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, true
		}
		if err != nil {
			putBodyBuf(buf)
			http.Error(w, "unreadable request: "+err.Error(), http.StatusBadRequest)
			return nil, false
		}
	}
}

func decodeBytes(w http.ResponseWriter, body []byte, v any) bool {
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, "malformed request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// Hot replies that never vary are rendered once at package init; the
// typed reply renderers (wirejson.go) hand out the shared bytes. These
// constants are also stored by reference in the dedup window, so they
// must NEVER be mutated or appended to.
var (
	ackBody         = []byte("{}\n")
	emptyBundleBody = []byte(`{"ads":null}` + "\n")
	houseAdBody     = []byte(`{"impression":0,"rescued":false}` + "\n")
)

// replyBufPool recycles marshal buffers for unstored responses (the
// non-idempotent write path, where the bytes die with the request).
var replyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON marshals v through encoding/json: the reply path of every
// endpoint that is not a device op (ledger, stats, health, admin), and
// of a batch reply the fast encoder declined.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header()["Content-Type"] = jsonContentType
	buf := replyBufPool.Get().(*bytes.Buffer)
	defer replyBufPool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Too late for a status code; the connection will surface it.
		return
	}
	w.Write(buf.Bytes())
}

func intParam(w http.ResponseWriter, r *http.Request, name string) (int, bool) {
	raw := r.URL.Query().Get(name)
	v, err := strconv.Atoi(raw)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad %s %q", name, raw), http.StatusBadRequest)
		return 0, false
	}
	return v, true
}
