package transport

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

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
// re-sent op is byte-stable. Retries are the per-op carrier's too: the
// envelope goes through the same loop (caller.do), whose attempts carry
// the sub-ops still unanswered under the same classification, backoff
// floor and retry charges. The differential suite in internal/sim
// asserts ledger/counter equality field-for-field.

// batchRoomForWakeup is the envelope headroom reserved for a wake-up's
// own ops after the queued reports; the outbox never fills an envelope
// past DefaultMaxBatchOps minus this.
const batchRoomForWakeup = 8

// resultErr reads one final sub-op answer as the error the op's own
// endpoint would have handed the device: nil for a 200, otherwise the
// StatusError of a definitive refusal.
func resultErr(r BatchOpResult) error {
	if r.Status == http.StatusOK {
		return nil
	}
	return &StatusError{Status: r.Status, Msg: fmt.Sprintf("transport: /v1/batch[%s]: %d: %s", r.Op, r.Status, r.Error)}
}

// envelopeCall is an exchange on the envelope carrier, as caller.do
// carries it and its replies decode into it.
type envelopeCall struct {
	ops      []BatchOp
	msg      batchMsg        // the envelope last rendered, carrying the ops still pending
	binary   bool            // the binary frame (WithBinaryBatch), not JSON
	reply    BatchReply      // the last 200 reply; bodies alias its own read buffer
	results  []BatchOpResult // each op's final answer, indexed like ops; zero while pending
	pending  []int           // the ops msg carries, once a reply left some pending (nil: all)
	answered bool            // a reply to msg was read: the next attempt renders a new one
}

// settle reads the reply to msg, one answer per op it carried, each
// classified by caller.final: final answers are kept, the rest stay
// pending. The error — never a StatusError: the answers are classified
// here — says ops are pending, or that the reply does not answer msg.
func (e *envelopeCall) settle(c *caller, floor *time.Duration) error {
	got := e.reply.Results
	if len(got) != len(e.msg.Ops) {
		return fmt.Errorf("transport: /v1/batch: %d results for %d ops", len(got), len(e.msg.Ops))
	}
	if e.results == nil {
		e.results = got // the first reply answers every op, in op order
	}
	var still []int
	for j, r := range got {
		i := j
		if e.pending != nil {
			i = e.pending[j]
		}
		if e.results[i] = r; !c.final(r.Status, r.RetryAfter, floor) {
			e.results[i] = BatchOpResult{}
			still = append(still, i)
		}
	}
	if e.pending, e.answered = still, true; len(still) > 0 {
		return fmt.Errorf("transport: /v1/batch: %d of %d ops still shed or failing", len(still), len(got))
	}
	return nil
}

// render renders the ops still pending as the next attempt's envelope,
// stamped at virtual time at.
func (e *envelopeCall) render(at simclock.Time) ([]byte, error) {
	ops := make([]BatchOp, len(e.pending))
	for j, i := range e.pending {
		ops[j] = e.ops[i]
	}
	e.msg.NowNS, e.msg.Ops, e.answered = int64(at), ops, false
	return encodeBatch(&e.msg, e.binary)
}

// encodeBatch renders one envelope in the device's wire codec: the
// binary frame when binary is set, otherwise JSON — the envelope codec's
// bytes, or json.Marshal's when a string needs an escape. The buffer is
// the request's own (see caller.send).
func encodeBatch(env *batchMsg, binary bool) ([]byte, error) {
	buf := make([]byte, 0, 96+64*len(env.Ops))
	if binary {
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

// sendEnvelope carries ops behind as many queued reports as leave room
// for a wake-up's own ops through the caller's retry loop, and reads the
// answers back per op. An op left unanswered gets the exchange's error;
// a report left so stays queued, and the queue counts as deferred. Of
// the answered reports, delivered (or replayed) ones leave the queue and
// definitively rejected ones are dropped as lost.
func (d *Device) sendEnvelope(now simclock.Time, ops []wakeOp) {
	n := min(len(d.deferred), DefaultMaxBatchOps-batchRoomForWakeup)
	if n+len(ops) == 0 {
		return
	}
	// Pin every op's timestamp: a later envelope is stamped with the
	// advanced clock, and an op inheriting it would hash as a different
	// request (409) instead of replaying. Reports come pinned.
	ns := int64(now)
	all := make([]BatchOp, 0, n+len(ops))
	for i := range d.deferred[:n] {
		all = append(all, d.deferred[i].op())
	}
	for i := range ops {
		if all = append(all, ops[i].BatchOp); ops[i].NowNS == nil {
			all[len(all)-1].NowNS = &ns
		}
	}
	e := &envelopeCall{ops: all, msg: batchMsg{Client: d.ID, NowNS: ns, Tenant: d.tenant, Ops: all}, binary: d.binaryBatch}
	body, err := encodeBatch(&e.msg, e.binary)
	if err == nil {
		contentType := jsonBody
		if e.binary {
			contentType = BinaryBatchContentType
		}
		err = d.do(now, http.MethodPost, "/v1/batch", contentType, body, d.nextKey(), e)
	}
	res := e.results
	if res == nil {
		res = make([]BatchOpResult, len(all)) // no reply was read: every op unanswered
	}
	kept := d.deferred[:0]
	for i := range d.deferred {
		if dr := &d.deferred[i]; i >= n || res[i].Status == 0 || !d.settle(dr, resultErr(res[i])) {
			kept = append(kept, *dr)
		}
	}
	d.deferred = kept
	if unanswered(err) {
		d.noteDeferredOutbox()
	}
	for i := range ops {
		w, r := &ops[i], res[n+i]
		if r.Status == 0 {
			w.err = err
		} else if w.err = resultErr(r); w.err == nil && w.out != nil {
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
