package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/auction"
	"repro/internal/envelope"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Batched wire mode (WithBatching): the device-side coalescing layer.
//
// The paper's energy argument is that many small transfers are the
// expensive shape — each drags the radio through a full
// promotion/tail cycle. This layer reshapes a wake-up into one
// POST /v1/batch envelope: queued display reports first (write-behind
// from earlier slots), then the wake-up's own ops. The caller charges
// the radio once per envelope, so the accounting matches the traffic.
//
// Equivalence with the sequential mode is the design constraint, not an
// accident: sub-ops keep the order the sequential path would have sent
// them in, carry their own idempotency keys (hash-compatible with the
// sequential endpoints, so replays cross modes), and pin their own
// timestamps so a re-sent op is byte-stable. The differential suite in
// internal/sim asserts ledger/counter equality field-for-field.

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

// batchOpError converts a definitive per-op failure into the
// StatusError the sequential endpoint would have returned.
func batchOpError(r BatchOpResult) error {
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
		// The follow-up is a retry in every sense the sequential path
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
		d.chargeRetry(at, int64(len(body))+retryOverheadBytes)
		d.net.Retries++
		d.cm.retries.Inc()
		d.cm.backoffNS.Add(int64(bo))
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

// outboxOps renders the queued display reports as the leading sub-ops
// of the next envelope (bounded so the wake-up's own ops still fit) and
// returns the settle function that consumes their per-op results:
// delivered (or replayed) reports leave the queue, definitive
// rejections are dropped as lost, retry-exhausted 429/5xx results keep
// their entries queued for the next batch.
func (d *Device) outboxOps() ([]BatchOp, func([]BatchOpResult)) {
	n := len(d.deferred)
	if max := DefaultMaxBatchOps - batchRoomForWakeup; n > max {
		n = max
	}
	ops := make([]BatchOp, 0, n+2)
	for _, dr := range d.deferred[:n] {
		msg := dr.msg
		ops = append(ops, BatchOp{Op: OpReport, Key: dr.key, Impression: msg.Impression, NowNS: &msg.NowNS})
	}
	settle := func(res []BatchOpResult) {
		kept := d.deferred[:0]
		for i, dr := range d.deferred {
			if i >= n {
				kept = append(kept, dr)
				continue
			}
			switch {
			case res[i].Status == http.StatusOK:
			case opRetryable(res[i].Status):
				kept = append(kept, dr) // server still unhealthy; ride the next batch
				continue
			default:
				d.net.LostReports++ // definitively rejected (e.g. swept while offline)
			}
			if dr.counted {
				d.cm.deferredDepth.Add(-1)
			}
		}
		d.deferred = kept
	}
	return ops, settle
}

// noteDeferredOutbox records that the queued reports survived an
// unreachable envelope: each entry counts as a deferred report once,
// however many batches fail around it.
func (d *Device) noteDeferredOutbox() {
	for i := range d.deferred {
		if !d.deferred[i].counted {
			d.deferred[i].counted = true
			d.net.DeferredReports++
			d.cm.deferredDepth.Add(1)
		}
	}
}

// batchedFetchBundle is FetchBundle in the coalesced mode: queued
// reports and the bundle download share one round trip.
func (d *Device) batchedFetchBundle(now simclock.Time) (int, error) {
	ops, settle := d.outboxOps()
	bi := len(ops)
	ops = append(ops, BatchOp{Op: OpBundle, Key: d.nextKey()})
	res, err := d.sendBatch(now, ops)
	switch {
	case err == nil:
	case errors.Is(err, ErrUnreachable):
		d.noteDeferredOutbox()
		d.net.LostBundles++
		return 0, nil
	default:
		return 0, err
	}
	settle(res)
	r := res[bi]
	if r.Status != http.StatusOK {
		if !opRetryable(r.Status) {
			return 0, batchOpError(r)
		}
		d.net.LostBundles++
		return 0, nil
	}
	var reply BundleReply
	if err := d.decodeSub(OpBundle, r.Body, &reply); err != nil {
		return 0, err
	}
	if len(reply.Ads) == 0 {
		return 0, nil
	}
	d.dev.Assign(fromAdMsgs(reply.Ads), true)
	return len(reply.Ads), nil
}

// batchedObserveSlot is ObserveSlot in the coalesced mode.
func (d *Device) batchedObserveSlot(now simclock.Time) error {
	ops, settle := d.outboxOps()
	si := len(ops)
	ops = append(ops, BatchOp{Op: OpSlot, Key: d.nextKey()})
	res, err := d.sendBatch(now, ops)
	switch {
	case err == nil:
	case errors.Is(err, ErrUnreachable):
		d.noteDeferredOutbox()
		d.net.LostObservations++
		return nil
	default:
		return err
	}
	settle(res)
	if r := res[si]; r.Status != http.StatusOK {
		if !opRetryable(r.Status) {
			return batchOpError(r)
		}
		d.net.LostObservations++
	}
	return nil
}

// batchedHandleSlot is HandleSlot in the coalesced mode. A cache hit
// costs one round trip (outbox + slot + cancellation refresh in one
// envelope; the display report is queued write-behind for the next
// one). A miss costs two: the on-demand fallback cannot wait — the slot
// needs its ad now.
func (d *Device) batchedHandleSlot(now simclock.Time, cats []trace.Category) (SlotOutcome, error) {
	var out SlotOutcome
	ops, settle := d.outboxOps()
	si := len(ops)
	ops = append(ops, BatchOp{Op: OpSlot, Key: d.nextKey()})
	ci := -1
	if ids := d.unknownCancellationIDs(); len(ids) > 0 {
		ci = len(ops)
		ops = append(ops, BatchOp{Op: OpCancelled, IDs: ids})
	}
	degraded := false
	res, err := d.sendBatch(now, ops)
	switch {
	case err == nil:
		settle(res)
		if r := res[si]; r.Status != http.StatusOK {
			if !opRetryable(r.Status) {
				return out, batchOpError(r)
			}
			d.net.LostObservations++
			degraded = true
		}
		if ci >= 0 {
			switch r := res[ci]; {
			case r.Status == http.StatusOK:
				var cr CancelledReply
				if err := d.decodeSub(OpCancelled, r.Body, &cr); err != nil {
					return out, err
				}
				for _, id := range cr.Cancelled {
					d.known[auction.ImpressionID(id)] = true
				}
			case !opRetryable(r.Status):
				return out, batchOpError(r)
			default:
				degraded = true // serve against stale cancellation knowledge
			}
		}
	case errors.Is(err, ErrUnreachable):
		d.noteDeferredOutbox()
		d.net.LostObservations++
		degraded = true
	default:
		return out, err
	}
	ad, hit := d.dev.ServeSlot(now, func(id auction.ImpressionID) bool { return d.known[id] })
	if hit {
		d.cm.cacheHits.Inc()
		out.CacheHit = true
		out.Impression = ad.ID
		// Write-behind: the report rides the next envelope under a key
		// and timestamp minted now, so its eventual delivery (or replay)
		// bills the display at display time without its own round trip.
		d.deferred = append(d.deferred, deferredReport{
			key: d.nextKey(),
			msg: reportMsg{Client: d.ID, Impression: int64(ad.ID), NowNS: int64(now)},
		})
		out.Deferred = true
		if degraded {
			out.Degraded = true
			d.net.DegradedSlots++
		}
		return out, nil
	}
	d.cm.cacheMisses.Inc()
	out.Fetched = true
	catNames := make([]string, len(cats))
	for i, c := range cats {
		catNames[i] = string(c)
	}
	// The miss's second envelope: any reports the first one could not
	// settle fold in opportunistically ahead of the on-demand op.
	odOps, odSettle := d.outboxOps()
	oi := len(odOps)
	odOps = append(odOps, BatchOp{Op: OpOnDemand, Key: d.nextKey(), Categories: catNames, NoRescue: d.NoRescue})
	odRes, err := d.sendBatch(now, odOps)
	switch {
	case err == nil:
		odSettle(odRes)
		r := odRes[oi]
		if r.Status != http.StatusOK {
			if !opRetryable(r.Status) {
				return out, batchOpError(r)
			}
			// Shed or erroring after retries: the slot shows a house ad.
			out.Degraded = true
			d.net.DegradedSlots++
			return out, nil
		}
		var reply OnDemandReply
		if err := d.decodeSub(OpOnDemand, r.Body, &reply); err != nil {
			return out, err
		}
		out.Impression = auction.ImpressionID(reply.Impression)
		out.Rescued = reply.Rescued
		if len(reply.TopUp) > 0 {
			d.dev.Assign(fromAdMsgs(reply.TopUp), true)
			out.TopUpAds = len(reply.TopUp)
		}
	case errors.Is(err, ErrUnreachable):
		d.noteDeferredOutbox()
		// Cache miss with no server: the slot shows a house ad.
		out.Degraded = true
		d.net.DegradedSlots++
		return out, nil
	default:
		return out, err
	}
	if degraded {
		out.Degraded = true
		d.net.DegradedSlots++
	}
	return out, nil
}

// flushBatched delivers the write-behind outbox as its own envelope
// (no wake-up op to ride): one round trip settles every queued report.
// Loops while the queue exceeds one envelope; stops when the server
// stops making progress.
func (d *Device) flushBatched(now simclock.Time) {
	for len(d.deferred) > 0 {
		ops, settle := d.outboxOps()
		res, err := d.sendBatch(now, ops)
		if err != nil {
			d.noteDeferredOutbox()
			return
		}
		before := len(d.deferred)
		settle(res)
		if len(d.deferred) >= before {
			d.noteDeferredOutbox() // nothing settled; server still unhealthy
			return
		}
	}
}
