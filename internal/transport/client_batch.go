package transport

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/envelope"
	"repro/internal/simclock"
)

// Batched wire mode (WithBatching): the envelope carrier of
// Device.exchange.
//
// The paper's energy argument is that many small transfers are the
// expensive shape — each drags the radio through a full
// promotion/tail cycle. This carrier ships a wake-up as one
// POST /v1/batch envelope: queued display reports first (write-behind
// from earlier slots), then the wake-up's own ops. The caller charges
// the radio once per envelope, so the accounting matches the traffic.
//
// Equivalence with the per-op carrier is the design constraint, not an
// accident: sub-ops keep the order the per-op carrier sends them in,
// carry their own idempotency keys (hash-compatible with the per-op
// endpoints, so replays cross modes), and pin their own timestamps so a
// re-sent op is byte-stable. The differential suite in internal/sim
// asserts ledger/counter equality field-for-field.

// batchRoomForWakeup is the envelope headroom reserved for a wake-up's
// own ops after the queued reports; the outbox never fills an envelope
// past DefaultMaxBatchOps minus this.
const batchRoomForWakeup = 8

// opRetryable reports whether a per-op status is the kind the transport
// retries (the server being unhealthy: shed or erroring), as opposed to
// a definitive protocol answer.
func opRetryable(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// resultErr reads one sub-op result as the error the op's own endpoint
// would have handed the device: nil for a 200; ErrUnreachable for a 429
// or 5xx that outlived every follow-up envelope (the server is
// unhealthy, the op unanswered); otherwise the StatusError of a
// definitive refusal.
func resultErr(r BatchOpResult) error {
	switch {
	case r.Status == http.StatusOK:
		return nil
	case opRetryable(r.Status):
		return ErrUnreachable
	}
	return &StatusError{Status: r.Status, Msg: fmt.Sprintf("transport: /v1/batch[%s]: %d: %s", r.Op, r.Status, r.Error)}
}

// sendBatch delivers one batch envelope: a single POST /v1/batch (with
// carrier-level retries and one radio charge per attempt, via the
// shared caller) followed by follow-up envelopes that re-send only the
// sub-ops whose results were retryable (429 or 5xx), under the same
// per-op keys so a sub-op that actually committed replays instead of
// re-executing. The returned slice is indexed like ops. A non-nil error
// means the carrier itself failed (unreachable network, or a rejected
// envelope); per-op failures live in the results.
func (d *Device) sendBatch(now simclock.Time, ops []BatchOp) ([]BatchOpResult, error) {
	// Pin every op's timestamp: follow-up envelopes advance their own
	// now_ns with the backoff, and an op inheriting the new default
	// would hash as a different request (409) instead of replaying.
	// (One shared timestamp: nothing writes through an op's pointers.)
	ns := int64(now)
	for i := range ops {
		if ops[i].NowNS == nil {
			ops[i].NowNS = &ns
		}
	}
	var reply BatchReply
	body, err := d.encodeBatch(&batchMsg{Client: d.ID, NowNS: int64(now), Tenant: d.tenant, Ops: ops})
	if err != nil {
		return nil, err
	}
	if err := d.postBatch(now, body, d.nextKey(), &reply); err != nil {
		return nil, err
	}
	if len(reply.Results) != len(ops) {
		return nil, fmt.Errorf("transport: /v1/batch: %d results for %d ops", len(reply.Results), len(ops))
	}
	results := reply.Results
	at := now
	for pass := 1; pass < d.Retry.MaxAttempts; pass++ {
		var retry []int
		for i, r := range results {
			if opRetryable(r.Status) {
				if r.Status == http.StatusTooManyRequests {
					d.net.Shed++
					d.cm.shed.Inc()
				}
				retry = append(retry, i)
			}
		}
		if len(retry) == 0 {
			break
		}
		// The follow-up is a retry in every sense the per-op wire
		// knows: virtual backoff, retry counters, one radio charge.
		bo := d.backoff(pass)
		at = at.Add(bo)
		sub := make([]BatchOp, len(retry))
		for j, i := range retry {
			sub[j] = ops[i]
		}
		// Rendered once: the radio is charged the bytes that are sent.
		body, err := d.encodeBatch(&batchMsg{Client: d.ID, NowNS: int64(at), Tenant: d.tenant, Ops: sub})
		if err != nil {
			break
		}
		d.countRetry(at, bo, len(body))
		var subReply BatchReply
		if err := d.postBatch(at, body, d.nextKey(), &subReply); err != nil {
			break // carrier down again; callers see the stale statuses
		}
		if len(subReply.Results) != len(sub) {
			break
		}
		for j, i := range retry {
			results[i] = subReply.Results[j]
		}
	}
	return results, nil
}

// encodeBatch renders one envelope in the device's wire codec: the
// binary frame under WithBinaryBatch, otherwise JSON — the envelope
// codec's bytes, or json.Marshal's when a string needs an escape. The
// buffer is the request's own (see caller.send).
func (d *Device) encodeBatch(env *batchMsg) ([]byte, error) {
	buf := make([]byte, 0, 96+64*len(env.Ops))
	if d.binaryBatch {
		body, err := envelope.AppendMsg(buf, *env)
		if err != nil {
			return nil, fmt.Errorf("transport: encoding /v1/batch: %w", err)
		}
		return body, nil
	}
	if body, ok := envelope.AppendMsgJSON(buf, env); ok {
		return body, nil
	}
	body, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("transport: encoding /v1/batch: %w", err)
	}
	return body, nil
}

// postBatch delivers one rendered envelope and decodes the reply by its
// response Content-Type (a server that answered JSON is decoded as
// JSON). reply's result bodies alias the buffer the reply was read
// into: callers decode them by value before their exchange returns.
func (d *Device) postBatch(at simclock.Time, body []byte, key string, reply *BatchReply) error {
	contentType := jsonBody
	if d.binaryBatch {
		contentType = BinaryBatchContentType
	}
	return d.do(at, http.MethodPost, "/v1/batch", contentType, body, key, reply)
}

// decodeSub decodes one 200 sub-op body: the strict decoder first; bytes
// it declines are counted and decoded by encoding/json as they always
// were.
func (d *Device) decodeSub(kind string, body []byte, out any) error {
	if scanReplyInto(body, out) {
		return nil
	}
	d.cm.wireFallback.Inc()
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("transport: decoding /v1/batch[%s]: %w", kind, err)
	}
	return nil
}

// sendEnvelope carries ops in one envelope behind as many queued
// reports as leave room for a wake-up's own ops, and reads the reply
// back per op. The envelope is all-or-nothing at the carrier — an
// unreachable one leaves every op unanswered and every report it
// carried counted deferred — and per-op above it: delivered (or
// replayed) reports leave the queue, definitively rejected ones are
// dropped as lost, and a report still answered 429/5xx after the
// follow-ups stays queued for the next envelope.
func (d *Device) sendEnvelope(now simclock.Time, ops []wakeOp) {
	n := min(len(d.deferred), DefaultMaxBatchOps-batchRoomForWakeup)
	if n+len(ops) == 0 {
		return
	}
	all := make([]BatchOp, 0, n+len(ops))
	for i := range d.deferred[:n] {
		all = append(all, d.deferred[i].op())
	}
	for i := range ops {
		all = append(all, ops[i].BatchOp)
	}
	res, err := d.sendBatch(now, all)
	if err != nil {
		if unanswered(err) {
			d.noteDeferredOutbox()
		}
		for i := range ops {
			ops[i].err = err
		}
		return
	}
	kept := d.deferred[:0]
	for i := range d.deferred {
		if dr := &d.deferred[i]; i >= n || !d.settle(dr, resultErr(res[i])) {
			kept = append(kept, *dr)
		}
	}
	d.deferred = kept
	for i := range ops {
		w, r := &ops[i], res[n+i]
		if w.err = resultErr(r); w.err == nil && w.out != nil {
			w.err = d.decodeSub(w.Op, r.Body, w.out)
		}
	}
}

// noteDeferredOutbox records that the queued reports survived an
// unanswered envelope: each entry counts as a deferred report once,
// however many envelopes fail around it.
func (d *Device) noteDeferredOutbox() {
	for i := range d.deferred {
		if !d.deferred[i].counted {
			d.deferred[i].counted = true
			d.net.DeferredReports++
			d.cm.deferredDepth.Add(1)
		}
	}
}
