package transport

import (
	"net/http"

	"repro/internal/obs"
	"repro/internal/radio"
)

// Option configures a Device or Coordinator at construction. The
// constructors take sensible defaults (DefaultTimeout HTTP client, a
// per-identity jitter seed, no meter, no registry); options override
// them piecemeal, so call sites state only what they change. The retry
// policy is fixed (see maxAttempts).
type Option func(*options)

type options struct {
	hc        *http.Client
	seed      *int64
	meter     *radio.Radio
	registry  *obs.Registry
	batching  bool
	binaryBat bool
	tenant    string
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithHTTPClient supplies the HTTP client of every attempt: its
// Transport (http.DefaultTransport when nil) carries each attempt, and
// its Timeout, when set, bounds one, reply body included. The rest of
// an http.Client (redirect policy, cookie jar) is not used: the
// protocol has neither. A nil client keeps the default (DefaultTimeout
// per attempt over http.DefaultTransport). A zero Timeout means
// attempts can hang on a dead peer and retries never fire.
func WithHTTPClient(hc *http.Client) Option {
	return func(o *options) { o.hc = hc }
}

// withJitterSeed overrides the backoff-jitter seed (by default derived
// from the device id, so fleets don't retry in lockstep). Two callers
// with the same seed draw identical jitter sequences; tests use it to
// pin that.
func withJitterSeed(seed int64) Option {
	return func(o *options) { o.seed = &seed }
}

// WithMeter attaches a radio-energy meter; retries are charged as
// transfers owned by RetryOwner. The meter must not be shared with a
// concurrently-used radio (a Device and its meter are single-threaded).
func WithMeter(m *radio.Radio) Option {
	return func(o *options) { o.meter = m }
}

// WithBatching switches a Device to the coalesced wire mode: the ops of
// one wake-up travel in a single POST /v1/batch envelope instead of one
// request each, display reports are queued write-behind and ride the
// next envelope (or a FlushDeferred call), and the radio model is
// charged once per batch instead of once per op. The wake-up itself is
// the same procedure on either wire (see Device.exchange); sub-ops keep
// their individual idempotency keys, so retries and mode switches never
// double-execute, and outcomes are equivalent to the per-op mode (the
// differential suite in internal/sim pins this). Coordinators ignore
// the option.
func WithBatching() Option {
	return func(o *options) { o.batching = true }
}

// WithBinaryBatch switches a batching Device's /v1/batch envelopes to
// the length-prefixed binary codec (see internal/envelope/frame.go):
// requests carry Content-Type application/x-adprefetch-batch and the
// "1;bin" version token, and the reply is decoded by its own
// Content-Type — a server that answered JSON is decoded as JSON. There
// is no fallback on the request side: a server that predates the codec
// cannot read the frame and answers 400, which the device returns as a
// definitive StatusError after one attempt — set the option only against
// servers that speak it. Sub-op semantics, idempotency keys and results
// are identical to the JSON envelope (the codec differential tier pins
// this); only the wire bytes change. Implies nothing without
// WithBatching — the per-op endpoints always speak JSON.
func WithBinaryBatch() Option {
	return func(o *options) { o.binaryBat = true }
}

// WithTenant declares the device's tenant on every request: sequential
// requests carry it in the X-AdPrefetch-Tenant header, batch envelopes
// in the envelope's tenant field (the binary codec switches to its
// tenant-carrying frame). Tenant attribution is authoritative from the
// server's registry — the declaration exists so a misconfigured device
// is refused (403) instead of silently billed to another publisher.
// Devices without the option keep the legacy single-tenant wire format,
// byte for byte.
func WithTenant(id string) Option {
	return func(o *options) { o.tenant = id }
}

// WithRegistry attaches client-side instrumentation: attempts, retries,
// shed replies, unreachable requests, virtual backoff nanoseconds,
// cache hits/misses, deferred-report queue depth and retry energy are
// recorded into the registry. Sharing one registry across a device
// fleet aggregates the counters fleet-wide (the series carry no
// per-device labels, so cardinality stays flat at any fleet size).
func WithRegistry(reg *obs.Registry) Option {
	return func(o *options) { o.registry = reg }
}

// clientMetrics is the pre-resolved handle set for client-side
// instrumentation. The zero value (all nil) is the disabled state: obs
// metrics no-op through nil receivers, so uninstrumented devices pay a
// nil check and nothing else.
type clientMetrics struct {
	attempts      *obs.Counter
	retries       *obs.Counter
	shed          *obs.Counter
	unreachable   *obs.Counter
	backoffNS     *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	deferredDepth *obs.Gauge
	retryEnergyJ  *obs.Gauge
	// wireFallback is the device-side twin of the server's
	// transport_wire_fallback_total: reply bodies the strict decoders
	// declined and encoding/json decoded instead.
	wireFallback *obs.Counter
}

func newClientMetrics(reg *obs.Registry) clientMetrics {
	if reg == nil {
		return clientMetrics{}
	}
	reg.SetHelp("client_attempts_total", "HTTP attempts sent, including retries.")
	reg.SetHelp("client_backoff_virtual_ns_total", "Virtual nanoseconds of retry backoff, fleet-wide.")
	reg.SetHelp("client_deferred_reports", "Display reports queued while the server is unreachable.")
	reg.SetHelp("client_retry_energy_joules", "Radio-model joules charged to retries (transfer-time accrual; tails settle at Flush).")
	reg.SetHelp("client_wire_fallback_total", "Reply bodies the strict wire decoders declined and encoding/json decoded instead.")
	return clientMetrics{
		attempts:      reg.Counter("client_attempts_total"),
		retries:       reg.Counter("client_retries_total"),
		shed:          reg.Counter("client_shed_total"),
		unreachable:   reg.Counter("client_unreachable_total"),
		backoffNS:     reg.Counter("client_backoff_virtual_ns_total"),
		cacheHits:     reg.Counter("client_cache_hits_total"),
		cacheMisses:   reg.Counter("client_cache_misses_total"),
		deferredDepth: reg.Gauge("client_deferred_reports"),
		retryEnergyJ:  reg.Gauge("client_retry_energy_joules"),
		wireFallback:  reg.Counter("client_wire_fallback_total"),
	}
}
