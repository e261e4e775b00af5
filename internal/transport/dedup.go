package transport

import (
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/simclock"
)

// dedupEntry is one remembered mutating request: the payload hash
// guards against key reuse, the stored response is replayed verbatim on
// a retry. client records which client the request was scoped to
// (negative for none) so live migration can carry the entry to the
// client's new owner — a retry that straddles a handoff still replays
// instead of double-executing.
type dedupEntry struct {
	payloadHash uint64
	status      int
	body        []byte
	at          simclock.Time
	client      int
}

// dedupStore is an idempotency-key window. It has no lock of its own:
// a shard's window is guarded by the shard lock, the period store by
// ShardedServer.periodMu, and either is held across lookup + execute +
// store, or two racing duplicates would both execute.
type dedupStore struct {
	entries map[string]dedupEntry
}

// sweep drops entries whose request timestamp predates cutoff. The
// dedup window is bounded memory: retries arrive within the retry
// policy's backoff horizon, so anything older than a couple of periods
// can only be a client bug, and replaying it is not worth the RAM.
func (ds *dedupStore) sweep(cutoff simclock.Time) {
	for k, e := range ds.entries {
		if e.at < cutoff {
			delete(ds.entries, k)
		}
	}
}

// requestHash fingerprints a request (method, path, payload) for
// key-reuse detection: reusing a key on a different endpoint or with a
// different body is a conflict, never a cross-endpoint replay.
//
// The digest is FNV-1a (64-bit) over method, " ", path, NUL, payload —
// written out rather than through hash/fnv so the hot path pays no
// hasher allocation. It is persisted (payload_hash in snapshots and
// migration blobs), so it must never change; TestRequestHashIsFNV1a
// holds it to hash/fnv's.
func requestHash(method, path string, payload []byte) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(method); i++ {
		h = (h ^ uint64(method[i])) * prime
	}
	h = (h ^ ' ') * prime
	for i := 0; i < len(path); i++ {
		h = (h ^ uint64(path[i])) * prime
	}
	h *= prime // the NUL separator: h ^ 0 == h
	for _, c := range payload {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// validIdemKey reports whether an Idempotency-Key header value is
// acceptable: at most 128 bytes of visible ASCII.
func validIdemKey(key string) bool {
	if len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] > '~' {
			return false
		}
	}
	return true
}

// stored is a response in the form the dedup window holds it — status
// plus body bytes, trailing newline included — and the op executor's
// currency: every wire form (a per-op endpoint's reply, a /v1/batch
// result in either codec, a replayed WAL record) is rendered from it.
// The body may be a shared constant or a window entry: never mutated.
type stored struct {
	status     int
	body       []byte
	replayed   bool // served from the window instead of executed
	retryAfter int  // 429s: the pressure-scaled hint (non-positive = flat 1 s)
}

// refused renders a refusal in stored form.
func refused(herr *httpError) stored {
	return stored{status: herr.status, body: []byte(herr.msg + "\n"), retryAfter: herr.retryAfter}
}

// okReply wraps a rendered 200 body (wirejson.go's typed renderers, or
// a shared constant) in stored form.
func okReply(body []byte) stored { return stored{status: http.StatusOK, body: body} }

// acked renders the outcome of an op whose success reply is the empty
// object: the shared {} constant, or the refusal.
func acked(herr *httpError) stored {
	if herr != nil {
		return refused(herr)
	}
	return okReply(ackBody)
}

// storedJSON renders a period round's outcome — the typed reply through
// encoding/json, or the refusal when herr is non-nil — in stored form.
func storedJSON(v any, herr *httpError) stored {
	if herr != nil {
		return refused(herr)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return stored{status: http.StatusInternalServerError, body: []byte("encoding reply\n")}
	}
	return okReply(append(b, '\n'))
}

const conflictMsg = "Idempotency-Key reused with a different request"

// do is the idempotency policy, and its only copy: exec runs at most
// once per key. A repeat of the same key and fingerprint replays the
// stored response byte-for-byte; a key reused with a different
// fingerprint is refused with 409 and nothing runs. Responses that
// asked the client to go elsewhere (429 back off, 421 moved) are not
// stored, so the retry re-executes against a healthy — or correct —
// owner. at stamps the entry for the period sweep and client (negative
// for none) for live migration. The store's guarding lock must be held:
// lookup, execute and store are one atomic step, or two racing
// duplicates would both run.
func (ds *dedupStore) do(key string, fingerprint uint64, at simclock.Time, client int, exec func() stored) stored {
	if e, ok := ds.entries[key]; ok {
		if e.payloadHash != fingerprint {
			return stored{status: http.StatusConflict, body: []byte(conflictMsg + "\n")}
		}
		return stored{status: e.status, body: e.body, replayed: true}
	}
	r := exec()
	if r.status != http.StatusTooManyRequests && r.status != http.StatusMisdirectedRequest {
		if ds.entries == nil {
			ds.entries = make(map[string]dedupEntry)
		}
		ds.entries[key] = dedupEntry{payloadHash: fingerprint, status: r.status, body: r.body, at: at, client: client}
	}
	return r
}

// idemKey reads a request's Idempotency-Key; ok=false means the key was
// malformed and a 400 has been written.
func idemKey(w http.ResponseWriter, r *http.Request) (key string, ok bool) {
	key = r.Header.Get(idempotencyKeyHeader)
	if key != "" && !validIdemKey(key) {
		http.Error(w, "malformed Idempotency-Key", http.StatusBadRequest)
		return "", false
	}
	return key, true
}

// writeStored puts a stored-form response on the wire: the replayed
// marker, the Retry-After every 429 carries, the content type, the
// stored bytes. The policy's own 409 is rendered like every other
// refusal that precedes execution (http.Error).
func writeStored(w http.ResponseWriter, r stored) {
	if r.status == http.StatusConflict {
		http.Error(w, conflictMsg, r.status)
		return
	}
	h := w.Header()
	if r.replayed {
		h[obs.ReplayedHeader] = replayedValue
	}
	if r.status == http.StatusTooManyRequests {
		h.Set("Retry-After", strconv.Itoa(max(r.retryAfter, 1)))
	}
	if r.status >= 400 {
		h["Content-Type"] = textContentType
	} else {
		h["Content-Type"] = jsonContentType
	}
	w.WriteHeader(r.status)
	w.Write(r.body)
}

// handlePeriod serves a period round: exec runs under periodMu and the
// idempotency policy of the server-wide period store — rounds fan out
// to every shard, so no shard's store can hold them, and a coordinator
// retry after a lost reply must not sell the round twice. Requests
// without a key execute without dedup; a malformed key is refused
// before exec runs.
func handlePeriod[Resp any](s *ShardedServer, exec func(periodMsg) (Resp, *httpError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		msg, body, ok := jsonReq[periodMsg](w, r)
		if !ok {
			return
		}
		defer putBodyBuf(body)
		key, ok := idemKey(w, r)
		if !ok {
			return
		}
		run := func() stored { return storedJSON(exec(msg)) }
		s.periodMu.Lock()
		defer s.periodMu.Unlock()
		if key == "" {
			writeStored(w, run())
			return
		}
		writeStored(w, s.periodDedup.do(key, requestHash(r.Method, r.URL.Path, body), simclock.Time(msg.NowNS), noClient, run))
	}
}
