// Package envelope is the batch envelope's wire form: the value types
// POST /v1/batch carries (Msg, Op, Result, Reply — their JSON tags
// define the JSON form, json.go is its reflection-free codec) and the
// binary APB1/APB2/APR1 frame layout (frame.go).
// It is a leaf: internal/transport executes envelopes, internal/cluster
// peeks the client id to route them and internal/faults reads sub-op
// identities out of them, and all three learn the layout here.
package envelope

import "encoding/json"

// Sub-operation kinds (Op.Op). Each stands for one per-op endpoint; the
// executor applies exactly that endpoint's semantics, including its
// idempotency rules.
const (
	OpSlot      = "slot"      // POST /v1/slot
	OpReport    = "report"    // POST /v1/report
	OpOnDemand  = "ondemand"  // POST /v1/ondemand
	OpCancelled = "cancelled" // GET /v1/cancelled (idempotent read, never deduped)
	OpBundle    = "bundle"    // GET /v1/bundle
)

// Kinds enumerates the valid Op.Op values in protocol order — also the
// order of the binary kind codes (1-based) and of metrics registration.
var Kinds = []string{OpSlot, OpReport, OpOnDemand, OpCancelled, OpBundle}

// Msg is the POST /v1/batch envelope: an ordered list of
// sub-operations from one device wake-up. Client and NowNS are the
// defaults every op inherits unless it overrides them. Tenant, when
// set, declares the device's tenant for the whole envelope (the batch
// equivalent of the X-AdPrefetch-Tenant header): every sub-op's
// effective client must belong to it, or the envelope is refused.
type Msg struct {
	Client int    `json:"client"`
	NowNS  int64  `json:"now_ns"`
	Tenant string `json:"tenant,omitempty"`
	Ops    []Op   `json:"ops"`
}

// Op is one sub-operation inside an envelope. Op selects the kind; Key
// is the sub-op's own idempotency key (same syntax and semantics as the
// Idempotency-Key header on the per-op endpoint — a replayed envelope
// replays each keyed sub-op individually). Client and NowNS, when set,
// override the envelope defaults; the remaining fields are per-kind
// payloads.
type Op struct {
	Op  string `json:"op"`
	Key string `json:"key,omitempty"`

	Client *int   `json:"client,omitempty"`
	NowNS  *int64 `json:"now_ns,omitempty"`

	Impression int64    `json:"impression,omitempty"` // report
	Categories []string `json:"categories,omitempty"` // ondemand
	NoRescue   bool     `json:"no_rescue,omitempty"`  // ondemand
	IDs        []int64  `json:"ids,omitempty"`        // cancelled
}

// ClientOf resolves a sub-op's effective client id.
func (m *Msg) ClientOf(op *Op) int {
	if op.Client != nil {
		return *op.Client
	}
	return m.Client
}

// NowOf resolves a sub-op's effective virtual timestamp.
func (m *Msg) NowOf(op *Op) int64 {
	if op.NowNS != nil {
		return *op.NowNS
	}
	return m.NowNS
}

// Result is one sub-operation's outcome. Status carries the HTTP status
// the per-op endpoint would have answered; Body holds the JSON reply
// for successes, Error the message for failures. Replayed marks results
// served from the idempotency window instead of executed. RetryAfter is
// a 429's hint in seconds — what the per-op endpoint's Retry-After
// header would have said — and is zero on every other status.
type Result struct {
	Op         string          `json:"op"`
	Status     int             `json:"status"`
	Replayed   bool            `json:"replayed,omitempty"`
	Error      string          `json:"error,omitempty"`
	RetryAfter int             `json:"retry_after,omitempty"`
	Body       json.RawMessage `json:"body,omitempty"`
}

// Reply answers POST /v1/batch: one result per op, in op order. The
// envelope itself succeeds (200) whenever it was well-formed, even if
// every sub-op failed — partial failure is per-op state, so a client
// retries only the ops that need it.
type Reply struct {
	Results []Result `json:"results"`
}
