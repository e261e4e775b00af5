package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/auction"
	"repro/internal/client"
	"repro/internal/envelope"
	"repro/internal/radio"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// Request-identity headers. Every request the clients send carries an
// Idempotency-Key (stable across retries of one logical request) and an
// X-Retry-Attempt counter; the server dedups mutating requests by key so
// a retried POST can never double-bill or double-stage, and the fault
// layer (internal/faults) hashes both for deterministic chaos.
const (
	idempotencyKeyHeader = "Idempotency-Key"
	attemptHeader        = "X-Retry-Attempt"
)

// DefaultTimeout bounds one HTTP attempt when the caller does not
// supply its own client. Pass WithHTTPClient to NewDevice /
// NewCoordinator to override (set its Timeout; a zero timeout means
// attempts can hang on a dead peer and retries never fire).
const DefaultTimeout = 10 * time.Second

// RetryOwner is the radio-energy owner retries are charged to when a
// Device carries a meter: the energy cost of robustness, reported
// separately from app and ad traffic.
const RetryOwner = radio.Owner("transport:retry")

// retryOverheadBytes approximates the non-body bytes of one retried
// request/response pair (headers both ways) for energy accounting.
const retryOverheadBytes = 512

// The client's resilience loop: four attempts per logical request,
// with 2s/4s/8s virtual backoff and 20% seeded jitter between them.
// Backoff rides the simulated clock (it positions retries on a device's
// virtual timeline and prices them in the radio model); the wall-clock
// loop never sleeps.
const (
	maxAttempts = 4                // total attempts per request
	baseBackoff = 2 * time.Second  // virtual delay before the second attempt
	maxBackoff  = 30 * time.Second // cap on the exponential growth
	jitterFrac  = 0.2              // seeded +/- fraction applied to each delay
)

// NetCounters tracks a client's transport-resilience outcomes. Each
// counter has one unit on both device carriers. An exchange is what one
// run of the retry loop carries (caller.do): a request on the per-op
// carrier, an envelope's ops on the batched one.
type NetCounters struct {
	Attempts         int64 // HTTP requests sent, retries included
	Retries          int64 // HTTP requests beyond an exchange's first
	Shed             int64 // 429 answers to ops: a request's status, or a sub-op's in an envelope
	Unreachable      int64 // exchanges that ended with an op unanswered
	DegradedSlots    int64 // slots handled in cache-only degraded mode
	DeferredReports  int64 // display reports queued while unreachable
	LostReports      int64 // deferred reports dropped (rejected by the server)
	LostBundles      int64 // bundle downloads abandoned after retries
	LostObservations int64 // slot observations lost to the network
}

// Add accumulates another counter set (e.g. per-device counters into a
// fleet total).
func (n *NetCounters) Add(o NetCounters) {
	n.Attempts += o.Attempts
	n.Retries += o.Retries
	n.Shed += o.Shed
	n.Unreachable += o.Unreachable
	n.DegradedSlots += o.DegradedSlots
	n.DeferredReports += o.DeferredReports
	n.LostReports += o.LostReports
	n.LostBundles += o.LostBundles
	n.LostObservations += o.LostObservations
}

// ErrUnreachable marks a request that exhausted every attempt without a
// definitive protocol answer: the network (or the server's health) is
// to blame, not the request. Callers use errors.Is to pick the graceful
// degradation path.
var ErrUnreachable = errors.New("transport: unreachable")

// StatusError is a non-2xx protocol reply. 4xx statuses are permanent
// (retrying the same request cannot help); 5xx and 429 are retried (see
// caller.final). RetryAfter carries a 429's Retry-After hint in seconds
// (0 when the server sent none); the retry loop honors it as a floor
// under its own exponential backoff.
type StatusError struct {
	Status     int
	Msg        string
	RetryAfter int
}

func (e *StatusError) Error() string { return e.Msg }

// caller is the shared retrying request engine behind Device and
// Coordinator: per-attempt identity headers, bounded retries with
// seeded virtual backoff, and optional radio-model energy charging.
type caller struct {
	// rt carries every attempt; timeout, when positive, bounds one
	// attempt, its reply's body included (an http.Client's Transport
	// and Timeout: see WithHTTPClient).
	rt      http.RoundTripper
	timeout time.Duration
	// base is the server's base URL, parsed once; baseErr is what
	// parsing it said, reported by every request (as http.NewRequest
	// reported it when each request re-parsed the string).
	base    *url.URL
	baseErr error

	jitter    *simclock.Rand
	keyPrefix string
	tenant    string
	// tenantValue is the tenant header's value slice, built once and
	// never mutated (see versionValue for why that matters).
	tenantValue []string
	seq         int64
	meter       *radio.Radio
	lastCharge  simclock.Time
	net         NetCounters
	cm          clientMetrics
}

// newCaller builds the request engine from resolved options.
// defaultSeed seeds the backoff jitter unless withJitterSeed overrode
// it (derived from the device id so fleets don't retry in lockstep).
func newCaller(baseURL, keyPrefix string, defaultSeed int64, o options) caller {
	rt, timeout := http.DefaultTransport, DefaultTimeout
	if o.hc != nil {
		rt, timeout = o.hc.Transport, o.hc.Timeout
		if rt == nil {
			rt = http.DefaultTransport
		}
	}
	seed := defaultSeed
	if o.seed != nil {
		seed = *o.seed
	}
	c := caller{
		rt:        rt,
		timeout:   timeout,
		jitter:    simclock.NewLightRand(seed).Stream("transport-retry"),
		keyPrefix: keyPrefix,
		tenant:    o.tenant,
		meter:     o.meter,
		cm:        newClientMetrics(o.registry),
	}
	if c.base, c.baseErr = url.Parse(strings.TrimRight(baseURL, "/")); c.baseErr == nil {
		c.base.Host = strings.TrimSuffix(c.base.Host, ":") // "host:" means "host", as http.NewRequest reads it
	}
	if o.tenant != "" {
		c.tenantValue = []string{o.tenant}
	}
	return c
}

// nextKey mints the idempotency key for one logical request:
// "<prefix>-<seq>".
func (c *caller) nextKey() string {
	c.seq++
	var buf [32]byte
	b := append(buf[:0], c.keyPrefix...)
	b = append(b, '-')
	return string(strconv.AppendInt(b, c.seq, 10))
}

// backoff returns the virtual delay before retry number k (1-based).
func (c *caller) backoff(k int) time.Duration {
	d := min(baseBackoff<<(k-1), maxBackoff)
	return time.Duration(c.jitter.Jitter(float64(d), jitterFrac))
}

// chargeRetry prices one retry attempt in the radio model: the extra
// bytes re-wake (or keep awake) the radio and leave a tail, so the
// robustness cost lands in the same joules as everything else.
func (c *caller) chargeRetry(at simclock.Time, bytes int64) {
	if c.meter == nil {
		return
	}
	if at < c.lastCharge {
		at = c.lastCharge // the radio serializes; keep its clock monotonic
	}
	c.lastCharge = c.meter.Transfer(at, bytes, RetryOwner)
	if c.cm.retryEnergyJ != nil {
		c.cm.retryEnergyJ.Set(c.meter.UsageOf(RetryOwner).TotalJ())
	}
}

// jsonBody is the content type of every request body but the binary
// batch frame.
const jsonBody = "application/json"

// do is the client's one retry loop: it carries one exchange — a
// request, or an envelope's ops (out an *envelopeCall) — until every op
// has an answer or the attempts run out, now anchoring their virtual
// timeline. Each attempt carries the ops still unanswered: after a
// carrier failure the same bytes under the same key; after a reply that
// left some of an envelope's ops pending, a new envelope of those at the
// advanced clock under a new key. final classifies every answer. uri is
// relative to the base URL; key may be empty (idempotent reads); a 200
// reply decodes into out (see decodeReply).
func (c *caller) do(now simclock.Time, method, uri, contentType string, body []byte, key string, out any) error {
	e, _ := out.(*envelopeCall)
	// One value slice serves every send of a key: built once, never mutated.
	var keyValue []string
	if key != "" {
		keyValue = []string{key}
	}
	at := now
	var lastErr error
	var floor time.Duration // server-asked minimum before the next attempt
	sends := 0              // sends of body under keyValue: X-Retry-Attempt
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			// The server's Retry-After is a floor under the policy's own
			// exponential backoff: come back no sooner than asked, but
			// never sooner than the policy would have anyway.
			d := max(c.backoff(attempt-1), floor)
			at = at.Add(d)
			if e != nil && e.answered {
				var err error
				if body, err = e.render(at); err != nil {
					return err
				}
				keyValue, sends = []string{c.nextKey()}, 0
			}
			c.chargeRetry(at, int64(len(body))+retryOverheadBytes)
			c.net.Retries++
			c.cm.retries.Inc()
			c.cm.backoffNS.Add(int64(d))
		}
		floor = 0
		sends++
		c.net.Attempts++
		c.cm.attempts.Inc()
		err := c.send(method, uri, contentType, body, keyValue, sends, out)
		if err == nil && e != nil {
			err = e.settle(c, &floor)
		}
		if err == nil {
			return nil
		}
		lastErr = err
		var se *StatusError
		if errors.As(err, &se) && c.final(se.Status, se.RetryAfter, &floor) {
			return err // definitive protocol answer; retrying cannot help
		}
	}
	c.net.Unreachable++
	c.cm.unreachable.Inc()
	return fmt.Errorf("%w: %s %s after %d attempts: %v", ErrUnreachable, method, uri, maxAttempts, lastErr)
}

// final is the one rule for an op's answer, a request's status or a
// sub-op's: 200 and 4xx are final; a 429 counts Shed and floors the next
// backoff at the hint; a 5xx retries, as does no answer (status 0).
func (c *caller) final(status, retryAfter int, floor *time.Duration) bool {
	if status == http.StatusTooManyRequests {
		c.net.Shed++
		c.cm.shed.Inc()
		*floor = max(*floor, time.Duration(retryAfter)*time.Second)
		return false
	}
	return status > 0 && status < 500
}

// attemptValues are the X-Retry-Attempt value slices of the attempts a
// default policy can make; shared and never mutated.
var attemptValues = [...][]string{{"1"}, {"2"}, {"3"}, {"4"}}

// send makes one HTTP attempt. The request is built by hand — what
// http.NewRequest builds, minus re-parsing the base URL — with its
// headers assigned under their canonical keys, the constant values as
// shared slices. The body is a *bytes.Reader over the caller's own
// buffer with ContentLength and GetBody set, exactly as http.NewRequest
// arranges for that reader type: the transport then writes head and
// body in one flush and can re-send on a dead pooled connection. It goes
// straight to the RoundTripper (the protocol has no redirects or
// cookies for an http.Client to follow). Neither the reader nor the
// buffer is pooled — net/http's Transport, when a caller supplies one,
// may still hold them in its write loop after RoundTrip returns an
// error.
func (c *caller) send(method, uri, contentType string, body []byte, keyValue []string, attempt int, out any) error {
	if c.baseErr != nil {
		return fmt.Errorf("transport: %s %s: %w", method, uri, c.baseErr)
	}
	u := *c.base
	path, query, _ := strings.Cut(uri, "?")
	if u.Path != "" {
		path = u.Path + path
	}
	u.Path, u.RawPath, u.RawQuery = path, "", query
	hdr := make(http.Header, 6)
	req := &http.Request{
		Method: method, URL: &u, Host: u.Host, Header: hdr,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}
	version := versionValue
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
		req.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
		if contentType == BinaryBatchContentType {
			// Advertise the binary capability as a version token. There is
			// no fallback: a server that predates the codec ignores the
			// token, cannot read the frame, and answers 400 — which the
			// device returns as a definitive StatusError after one attempt.
			hdr["Content-Type"], version = binContentType, versionBinValue
		} else {
			hdr["Content-Type"] = jsonContentType
		}
	}
	if keyValue != nil {
		hdr[idempotencyKeyHeader] = keyValue
	}
	if c.tenantValue != nil {
		hdr[TenantHeader] = c.tenantValue
	}
	if attempt <= len(attemptValues) {
		hdr[attemptHeader] = attemptValues[attempt-1]
	} else {
		hdr[attemptHeader] = []string{strconv.Itoa(attempt)}
	}
	hdr[VersionHeader] = version
	if c.timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
		defer cancel() // after readReply: the timeout covers the body
		req = req.WithContext(ctx)
	}
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		return fmt.Errorf("transport: %s %s: %w", method, uri, err)
	}
	data, err := readReply(uri, resp)
	if err != nil {
		return err
	}
	return c.decodeReply(uri, envelope.IsBinary(resp.Header.Get("Content-Type")), data, out)
}

// Net returns the accumulated transport-resilience counters.
func (c *caller) Net() NetCounters { return c.net }

// RetryEnergyJ returns the joules retries have cost so far (zero
// without a meter). The final radio tail is charged by Flush at the
// meter's owner; call the meter's Flush before the last read for exact
// settling.
func (c *caller) RetryEnergyJ() float64 {
	if c.meter == nil {
		return 0
	}
	return c.meter.UsageOf(RetryOwner).TotalJ()
}

// deferredReport is a display report queued for later delivery: it
// keeps its original idempotency key and timestamp, so the eventual
// delivery bills the display at display time — or replays the stored
// answer if an earlier attempt actually landed. The per-op wire queues
// these only when the server is unreachable; the batched wire queues
// every report write-behind so it rides the next envelope. counted
// marks entries already tallied in NetCounters.DeferredReports
// (write-behinds only count once they outlive an exchange that ended
// with an op unanswered).
type deferredReport struct {
	key        string
	impression int64
	nowNS      int64
	counted    bool
}

// op is the queued report as the op that delivers it, pinned to its
// display time. The timestamp points into the queue entry itself: ops
// are rendered before the queue is next touched.
func (dr *deferredReport) op() BatchOp {
	return BatchOp{Op: OpReport, Key: dr.key, Impression: dr.impression, NowNS: &dr.nowNS}
}

// wakeOp is one op of a device wake-up: the op as an envelope would
// carry it, where its 200 reply decodes to (nil for a bare ack), and —
// once exchange returns — how it fared: nil (answered and decoded),
// an error that Is ErrUnreachable (unanswered: the link, or a server
// still shedding or erroring after every retry), or the definitive
// refusal the wake-up returns to its caller.
type wakeOp struct {
	BatchOp
	out any
	err error
}

// unanswered reports whether an op's outcome is "no definitive answer".
func unanswered(err error) bool { return errors.Is(err, ErrUnreachable) }

// Device is the phone-side runtime speaking the transport protocol: it
// owns the local ad cache and drives the HTTP endpoints at the moments
// the in-process engine would call them directly. One Device per
// simulated phone; not safe for concurrent use (a phone is a single
// event stream).
//
// The device survives a faulty network: every request is retried per
// Retry with virtual backoff, mutating requests carry idempotency keys,
// and when the server stays unreachable the device degrades to
// cache-only operation — slots are served from the local cache with the
// last-known cancellation state, display reports queue for later
// delivery, and cache misses fall back to a house ad instead of
// failing the slot.
//
// Each wake-up (FetchBundle, ObserveSlot, HandleSlot, FlushDeferred) is
// written once, over a list of ops; exchange carries the list in the
// device's wire form. What differs by wire form is decided in two
// places only: how ops travel and when the queue rides along
// (exchange), and when a display report goes (HandleSlot's hit).
type Device struct {
	ID int
	caller
	dev *client.Device

	// NoRescue, when set, asks the server to skip the rescue path on
	// cache misses and sell fresh inventory instead (the wire form of
	// core.Config.NoRescue).
	NoRescue bool

	// known caches cancellation knowledge fetched from the server.
	known map[auction.ImpressionID]bool

	// deferred holds display reports awaiting delivery: the unreachable
	// queue on the per-op wire, the write-behind outbox on the batched one.
	deferred []deferredReport

	// batching selects the coalesced wire mode (see WithBatching);
	// binaryBatch additionally selects the binary envelope codec for it
	// (see WithBinaryBatch).
	batching    bool
	binaryBatch bool
}

// NewDevice creates a device talking to the server at baseURL. With no
// options it uses a DefaultTimeout HTTP client and a jitter seed
// derived from the device id; see Option for the knobs.
func NewDevice(id, cacheCap int, baseURL string, opts ...Option) (*Device, error) {
	dev, err := client.NewDevice(id, cacheCap)
	if err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	return &Device{
		ID:          id,
		caller:      newCaller(baseURL, fmt.Sprintf("c%d", id), int64(id)+1, o),
		dev:         dev,
		known:       make(map[auction.ImpressionID]bool),
		batching:    o.batching,
		binaryBatch: o.binaryBat,
	}, nil
}

// Counters exposes the device-side counters.
func (d *Device) Counters() client.Counters { return d.dev.Counters }

// CacheLen returns the number of locally cached ads.
func (d *Device) CacheLen() int { return d.dev.Cache.Len() }

// PendingReports returns how many display reports await delivery.
func (d *Device) PendingReports() int { return len(d.deferred) }

// exchange carries one wake-up's ops to the server in the device's wire
// form and leaves each op's outcome in its err. flush marks the points
// at which the per-op wire first tries to deliver the report queue.
//
// On the batched wire the ops share one POST /v1/batch envelope, and the
// queue rides every envelope ahead of them — there it is free. A bare
// flush (no ops) sends envelopes until the queue is empty or one settles
// nothing; only then do the reports it carried count as deferred.
//
// On the per-op wire every op is its own request on its own endpoint, in
// order; the first definitive refusal ends the exchange (the wake-up is
// about to return it) and the ops behind it are never sent.
func (d *Device) exchange(now simclock.Time, ops []wakeOp, flush bool) {
	if d.batching {
		for {
			before := len(d.deferred)
			d.sendEnvelope(now, ops)
			if len(ops) > 0 || len(d.deferred) == 0 {
				return
			}
			if len(d.deferred) >= before {
				d.noteDeferredOutbox() // nothing settled; server still unhealthy
				return
			}
		}
	}
	if flush {
		d.flushPerOp(now)
	}
	for i := range ops {
		d.sendOp(now, &ops[i])
		if err := ops[i].err; err != nil && !unanswered(err) {
			for j := i + 1; j < len(ops); j++ {
				ops[j].err = err
			}
			return
		}
	}
}

// sendOp carries one op on its own endpoint, rendered by the function
// the server fingerprints it with (opRequest). An unkeyed read gets its
// request key minted here, at send, exactly as an envelope does. The
// reply is decoded inside the retry loop (caller.do), so a truncated
// one fails its attempt and is retried. A POST's body is the request's
// own buffer (see send); a GET's URI is rendered on the stack.
func (d *Device) sendOp(now simclock.Time, w *wakeOp) {
	nowNS := int64(now)
	if w.NowNS != nil {
		nowNS = *w.NowNS
	}
	var buf [192]byte
	method, path, payload := opRequest(buf[:0], d.ID, nowNS, &w.BatchOp)
	key := w.Key
	if key == "" {
		key = d.nextKey()
	}
	out := w.out
	if out == nil {
		out = &struct{}{}
	}
	if method == http.MethodGet {
		w.err = d.do(now, method, string(payload), "", nil, key, out)
	} else {
		w.err = d.do(now, method, path, jsonBody, bytes.Clone(payload), key, out)
	}
}

// flushPerOp delivers queued reports one request each, oldest first,
// and stops at the first one left unanswered: the link is still down,
// and the reports behind it stay unattempted.
func (d *Device) flushPerOp(now simclock.Time) {
	for len(d.deferred) > 0 {
		w := wakeOp{BatchOp: d.deferred[0].op()}
		d.sendOp(now, &w)
		if !d.settle(&d.deferred[0], w.err) {
			return
		}
		d.deferred = d.deferred[1:]
	}
}

// settle applies a delivery attempt's outcome to a queued report and
// reports whether the entry leaves the queue: delivered (or replayed)
// reports do, and so do reports the server definitively rejects (e.g.
// the impression expired while the device was offline — the sweep
// already settled it), counted lost; an unanswered report stays.
func (d *Device) settle(dr *deferredReport, err error) bool {
	switch {
	case err == nil:
	case unanswered(err):
		return false
	default:
		d.net.LostReports++
	}
	if dr.counted {
		d.cm.deferredDepth.Add(-1)
	}
	return true
}

// FetchBundle downloads the client's staged prefetch bundle (if any) and
// ingests it into the cache. It returns the number of ads downloaded.
// The download is idempotent: the server stages the drained bundle
// under the request's key, so a retry after a lost response re-delivers
// the same ads instead of finding an empty shelf. If the server stays
// unreachable the bundle is abandoned for this period (the ads expire
// server-side) and the device carries on from its cache.
func (d *Device) FetchBundle(now simclock.Time) (int, error) {
	reply := new(BundleReply)
	ops := [1]wakeOp{{BatchOp: BatchOp{Op: OpBundle, Key: d.nextKey()}, out: reply}}
	d.exchange(now, ops[:], true)
	if unanswered(ops[0].err) {
		d.net.LostBundles++
		return 0, nil
	}
	if ops[0].err != nil {
		return 0, ops[0].err
	}
	if len(reply.Ads) == 0 {
		return 0, nil
	}
	d.dev.Assign(fromAdMsgs(reply.Ads), true)
	return len(reply.Ads), nil
}

// SlotOutcome is what one ad slot did on the HTTP path, so the caller
// can charge the network transfers it implied.
type SlotOutcome struct {
	CacheHit   bool
	Fetched    bool
	Rescued    bool
	TopUpAds   int
	Impression auction.ImpressionID

	// Degraded marks a slot handled without the server: a house ad on a
	// cache miss, or a cache hit with stale cancellation knowledge.
	Degraded bool
	// Deferred marks a served slot whose display report is queued for
	// later delivery.
	Deferred bool
}

// ObserveSlot reports a slot firing for predictor training without
// serving an ad (the warm-up phase of a trace replay: predictors learn,
// nothing is sold or displayed). A lost observation only costs training
// data, so an unreachable server is not an error.
func (d *Device) ObserveSlot(now simclock.Time) error {
	ops := [1]wakeOp{{BatchOp: BatchOp{Op: OpSlot, Key: d.nextKey()}}}
	d.exchange(now, ops[:], false)
	if unanswered(ops[0].err) {
		d.net.LostObservations++
		return nil
	}
	return ops[0].err
}

// HandleSlot processes one ad slot: tell the server the slot fired and
// refresh cancellation knowledge, serve from the local cache (reporting
// the display), or fall back to the on-demand endpoint. When the server
// is unreachable the slot degrades instead of failing: cached ads are
// served against the last-known cancellation state with the report
// deferred, and cache misses show a house ad (Impression 0, Degraded
// set). On the batched wire a hit costs one round trip (the report
// rides the next envelope) and a miss two: the on-demand fallback
// cannot wait — the slot needs its ad now.
func (d *Device) HandleSlot(now simclock.Time, cats []trace.Category) (SlotOutcome, error) {
	var out SlotOutcome
	var arr [2]wakeOp
	arr[0] = wakeOp{BatchOp: BatchOp{Op: OpSlot, Key: d.nextKey()}}
	ops := arr[:1]
	// The probe asks which cached impressions are already claimed
	// elsewhere, so the cache can skip them.
	var probe *CancelledReply
	if ids := d.unknownCancellationIDs(); len(ids) > 0 {
		probe = new(CancelledReply)
		arr[1] = wakeOp{BatchOp: BatchOp{Op: OpCancelled, IDs: ids}, out: probe}
		ops = arr[:2]
	}
	d.exchange(now, ops, true)
	degraded := false
	for i := range ops {
		if unanswered(ops[i].err) {
			// A lost probe means serving against stale cancellation
			// knowledge; a lost observation only costs training data.
			degraded = true
			if i == 0 {
				d.net.LostObservations++
			}
		} else if ops[i].err != nil {
			return out, ops[i].err
		}
	}
	if probe != nil {
		for _, id := range probe.Cancelled {
			d.known[auction.ImpressionID(id)] = true
		}
	}
	if ad, hit := d.dev.ServeSlot(now, func(id auction.ImpressionID) bool { return d.known[id] }); hit {
		d.cm.cacheHits.Inc()
		out.CacheHit = true
		out.Impression = ad.ID
		// The display happened; the bill must not be lost with the link.
		// The report's key and timestamp are minted now, so its delivery
		// (or replay, if an attempt landed server-side) bills the display
		// at display time whenever it goes.
		rep := deferredReport{key: d.nextKey(), impression: int64(ad.ID), nowNS: int64(now)}
		// Batched wire: write-behind — the report rides the next envelope
		// without a round trip of its own, and counts as deferred only
		// once it outlives an exchange left unanswered. Per-op wire: the
		// report goes at once, and is queued (and counted) only if the
		// link is down.
		queue := d.batching
		if !queue {
			send := [1]wakeOp{{BatchOp: BatchOp{Op: OpReport, Key: rep.key, Impression: rep.impression}}}
			d.exchange(now, send[:], false)
			if queue = unanswered(send[0].err); queue {
				rep.counted = true
				d.net.DeferredReports++
				d.cm.deferredDepth.Add(1)
				degraded = true
			} else if send[0].err != nil {
				return out, send[0].err
			}
		}
		if queue {
			d.deferred = append(d.deferred, rep)
			out.Deferred = true
		}
	} else {
		d.cm.cacheMisses.Inc()
		out.Fetched = true
		catNames := make([]string, len(cats))
		for i, c := range cats {
			catNames[i] = string(c)
		}
		reply := new(OnDemandReply)
		fetch := [1]wakeOp{{BatchOp: BatchOp{Op: OpOnDemand, Key: d.nextKey(), Categories: catNames, NoRescue: d.NoRescue}, out: reply}}
		d.exchange(now, fetch[:], false)
		if unanswered(fetch[0].err) {
			// Cache miss with no server (or one shedding or erroring
			// after every retry): the slot shows a house ad.
			out.Degraded = true
			d.net.DegradedSlots++
			return out, nil
		}
		if fetch[0].err != nil {
			return out, fetch[0].err
		}
		out.Impression = auction.ImpressionID(reply.Impression)
		out.Rescued = reply.Rescued
		if len(reply.TopUp) > 0 {
			d.dev.Assign(fromAdMsgs(reply.TopUp), true)
			out.TopUpAds = len(reply.TopUp)
		}
	}
	if degraded {
		out.Degraded = true
		d.net.DegradedSlots++
	}
	return out, nil
}

// FlushDeferred attempts to deliver queued display reports. HandleSlot
// and FetchBundle flush opportunistically; call this at the end of a
// run to settle the queue. See exchange for how far a flush goes on
// each wire when the server is not answering.
func (d *Device) FlushDeferred(now simclock.Time) { d.exchange(now, nil, true) }

// unknownCancellationIDs lists cached impressions whose cancellation
// state is not yet known, in cache snapshot order.
func (d *Device) unknownCancellationIDs() []int64 {
	snapshot := d.dev.Cache.Snapshot()
	if len(snapshot) == 0 {
		return nil
	}
	ids := make([]int64, 0, len(snapshot))
	for _, ad := range snapshot {
		if !d.known[ad.ID] {
			ids = append(ids, int64(ad.ID))
		}
	}
	return ids
}

// readReply consumes an HTTP response, the one place both reply forms
// pass through: a non-200 status becomes a StatusError (with a 429's
// Retry-After), a 200 is read whole, in one buffer sized from
// Content-Length. The body is always drained before close so the
// keep-alive connection returns to the pool instead of being torn down
// (trailing bytes — or an error's tail past the quoted 512 — would
// otherwise kill reuse).
func readReply(uri string, resp *http.Response) ([]byte, error) {
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return nil, &StatusError{
			Status:     resp.StatusCode,
			Msg:        fmt.Sprintf("transport: %s: %s: %s", uri, resp.Status, strings.TrimSpace(string(msg))),
			RetryAfter: ra,
		}
	}
	// One spare byte lets the read that reports EOF land without growing
	// the buffer (io.ReadAll's loop, with the size known up front).
	size := resp.ContentLength
	if size < 0 {
		size = 511 // unknown (chunked): io.ReadAll's starting size
	}
	data := make([]byte, 0, size+1)
	for {
		n, err := resp.Body.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return nil, fmt.Errorf("transport: reading %s: %w", uri, err)
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// decodeReply decodes a 200 reply body into out: a *BatchReply or an
// *envelopeCall's reply (binary says the reply declared the binary
// frame; a JSON reply's Result.Body values alias data), one of the op
// replies scanReplyInto knows, or a func([]byte) error for callers that
// bring their own decoder (it runs here so that a reply it rejects — a
// truncated one, under chaos — fails the attempt and is retried like any
// other). Bytes the strict decoders decline are counted and decoded by
// encoding/json exactly as every reply used to be — one value off the
// front of the body.
func (c *caller) decodeReply(uri string, binary bool, data []byte, out any) error {
	if e, ok := out.(*envelopeCall); ok {
		out = &e.reply
	}
	switch out := out.(type) {
	case func([]byte) error:
		return out(data)
	case *BatchReply:
		if binary {
			reply, err := envelope.DecodeReply(data)
			if err != nil {
				return fmt.Errorf("transport: decoding %s: %w", uri, err)
			}
			*out = reply
			return nil
		}
		var ok bool
		if *out, ok = envelope.ScanReply(data); ok {
			return nil
		}
	default:
		if scanReplyInto(data, out) {
			return nil
		}
	}
	c.cm.wireFallback.Inc()
	return decodeJSONReply(uri, data, out)
}

// jsonReplyInto is the coordinator's reply decoder for caller.do.
func jsonReplyInto(uri string, out any) func([]byte) error {
	return func(data []byte) error { return decodeJSONReply(uri, data, out) }
}

// decodeJSONReply is encoding/json's reading of a reply body.
func decodeJSONReply(uri string, data []byte, out any) error {
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(out); err != nil {
		return fmt.Errorf("transport: decoding %s: %w", uri, err)
	}
	return nil
}

// Coordinator drives the server's period lifecycle over HTTP (in a real
// deployment this is the server's own cron; in demos and tests the
// harness owns the clock). Period calls are idempotent and retried like
// device traffic; the coordinator is not safe for concurrent use.
type Coordinator struct {
	caller
}

// NewCoordinator creates a period driver for the server at baseURL.
// With no options it uses a DefaultTimeout HTTP client; see Option for
// the knobs.
func NewCoordinator(baseURL string, opts ...Option) *Coordinator {
	return &Coordinator{caller: newCaller(baseURL, "coord", -1, buildOptions(opts))}
}

// StartPeriod opens a prefetch round.
func (c *Coordinator) StartPeriod(now simclock.Time, index, ofDay int, weekend bool) (PeriodStartReply, error) {
	var reply PeriodStartReply
	err := c.period(now, "/v1/period/start", periodMsg{NowNS: int64(now), Index: index, OfDay: ofDay, Weekend: weekend}, &reply)
	return reply, err
}

// EndPeriod closes a round (train + sweep).
func (c *Coordinator) EndPeriod(now simclock.Time, index, ofDay int, weekend bool) (PeriodEndReply, error) {
	var reply PeriodEndReply
	err := c.period(now, "/v1/period/end", periodMsg{NowNS: int64(now), Index: index, OfDay: ofDay, Weekend: weekend}, &reply)
	return reply, err
}

// The coordinator's traffic is a few requests per period, not per
// wake-up: encoding/json renders its bodies and reads its replies.

// period sends one period round.
func (c *Coordinator) period(now simclock.Time, path string, msg periodMsg, out any) error {
	body, err := json.Marshal(msg)
	if err != nil {
		return fmt.Errorf("transport: encoding %s: %w", path, err)
	}
	return c.do(now, http.MethodPost, path, jsonBody, body, c.nextKey(), jsonReplyInto(path, out))
}

// view fetches one of the read-only views.
func (c *Coordinator) view(path string, out any) error {
	return c.do(0, http.MethodGet, path, "", nil, "", jsonReplyInto(path, out))
}

// Ledger fetches the exchange ledger snapshot.
func (c *Coordinator) Ledger() (auction.Ledger, error) {
	var l auction.Ledger
	err := c.view("/v1/ledger", &l)
	return l, err
}

// Stats fetches the merged ops snapshot.
func (c *Coordinator) Stats() (StatsReply, error) {
	var st StatsReply
	err := c.view("/v1/stats", &st)
	return st, err
}

// Health fetches the per-shard health snapshot.
func (c *Coordinator) Health() (HealthReply, error) {
	var h HealthReply
	err := c.view("/v1/health", &h)
	return h, err
}
