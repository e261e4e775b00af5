package transport

import (
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"

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

// dedupStore is an idempotency-key window. Its mutex is held across
// handler execution (lookup + execute + store must be atomic, or two
// racing duplicates would both execute); per-shard requests already
// serialize on the shard lock, so this costs no extra parallelism.
type dedupStore struct {
	mu      sync.Mutex
	entries map[string]dedupEntry
}

// sweep drops entries whose request timestamp predates cutoff. The
// dedup window is bounded memory: retries arrive within the retry
// policy's backoff horizon, so anything older than a couple of periods
// can only be a client bug, and replaying it is not worth the RAM.
func (ds *dedupStore) sweep(cutoff simclock.Time) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for k, e := range ds.entries {
		if e.at < cutoff {
			delete(ds.entries, k)
		}
	}
}

func (ds *dedupStore) len() int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return len(ds.entries)
}

// requestHash fingerprints a request (method, path, payload) for
// key-reuse detection: reusing a key on a different endpoint or with a
// different body is a conflict, never a cross-endpoint replay.
func requestHash(method, path string, payload []byte) uint64 {
	h := fnv.New64a()
	io.WriteString(h, method)
	io.WriteString(h, " ")
	io.WriteString(h, path)
	h.Write([]byte{0})
	h.Write(payload)
	return h.Sum64()
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

// storedReply renders an executor's outcome — the typed reply, or the
// refusal when herr is non-nil — in stored form. marshalReply hands
// back shared pre-marshaled bytes for the hot constant replies.
func storedReply(v any, herr *httpError) stored {
	if herr != nil {
		return stored{status: herr.status, body: []byte(herr.msg + "\n"), retryAfter: herr.retryAfter}
	}
	body, err := marshalReply(v)
	if err != nil {
		return stored{status: http.StatusInternalServerError, body: []byte("encoding reply\n")}
	}
	return stored{status: http.StatusOK, body: body}
}

const conflictMsg = "Idempotency-Key reused with a different request"

// do is the idempotency policy, and its only copy: exec runs at most
// once per key. A repeat of the same key and fingerprint replays the
// stored response byte-for-byte; a key reused with a different
// fingerprint is refused with 409 and nothing runs. Responses that
// asked the client to go elsewhere (429 back off, 421 moved) are not
// stored, so the retry re-executes against a healthy — or correct —
// owner. at stamps the entry for the period sweep and client (negative
// for none) for live migration. ds.mu must be held: lookup, execute and
// store are one atomic step, or two racing duplicates would both run.
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
	if r.replayed {
		w.Header().Set(obs.ReplayedHeader, "true")
	}
	if r.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(max(r.retryAfter, 1)))
	}
	if r.status >= 400 {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(r.status)
	w.Write(r.body)
}

// handlePeriod serves a period round: exec runs under the idempotency
// policy in the server-wide store ds — rounds fan out to every shard,
// so no shard's store can hold them, and a coordinator retry after a
// lost reply must not sell the round twice. Requests without a key
// execute without dedup; a malformed key is refused before exec runs.
func handlePeriod[Resp any](ds *dedupStore, exec func(periodMsg) (Resp, *httpError)) http.HandlerFunc {
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
		run := func() stored { return storedReply(exec(msg)) }
		if key == "" {
			writeStored(w, run())
			return
		}
		ds.mu.Lock()
		defer ds.mu.Unlock()
		writeStored(w, ds.do(key, requestHash(r.Method, r.URL.Path, body), simclock.Time(msg.NowNS), noClient, run))
	}
}
