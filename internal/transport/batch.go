package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/envelope"
)

// The envelope's value types and frame layout live in internal/envelope
// (the routing tier and the fault layer read them too); these are the
// names the serving path and the device client use for them.
type (
	batchMsg      = envelope.Msg
	BatchOp       = envelope.Op
	BatchOpResult = envelope.Result
	BatchReply    = envelope.Reply
)

// Batch sub-operation kinds (BatchOp.Op), one per per-op endpoint.
const (
	OpSlot      = envelope.OpSlot
	OpReport    = envelope.OpReport
	OpOnDemand  = envelope.OpOnDemand
	OpCancelled = envelope.OpCancelled
	OpBundle    = envelope.OpBundle
)

// BinaryBatchContentType marks a binary batch envelope (request) or
// reply (response). The server answers in the codec the request used.
const BinaryBatchContentType = envelope.ContentType

// binVersionToken is the capability token a binary-capable client
// appends to the version header ("1;bin").
const binVersionToken = "bin"

// wakeupOps sizes handleBatch's stack-resident working arrays: a
// device's wake-up envelope (queued reports, slot, cancellation probe,
// bundle or on-demand) rarely carries more ops than this.
const wakeupOps = 8

// DefaultMaxBatchOps bounds how many sub-operations one POST /v1/batch
// envelope may carry when ShardedServer.MaxBatchOps is unset. The bound
// keeps a single request's lock hold time proportional to one device's
// wake-up, not an unbounded replay.
const DefaultMaxBatchOps = 128

// validateBatchOp rejects sub-ops that could never execute: unknown
// kinds and malformed idempotency keys. Rejection is per-op — the rest
// of the envelope still runs.
func validateBatchOp(op *BatchOp) *httpError {
	switch op.Op {
	case OpSlot, OpReport, OpOnDemand, OpCancelled, OpBundle:
	default:
		return errf(http.StatusBadRequest, "unknown batch op %q", op.Op)
	}
	if op.Key != "" && !validIdemKey(op.Key) {
		return errf(http.StatusBadRequest, "malformed sub-op idempotency key")
	}
	return nil
}

// handleBatch implements POST /v1/batch: decode and validate the whole
// envelope before executing anything (a rejected envelope commits
// nothing), group the valid sub-ops by owning shard, and hand each
// group to execGroup. Groups run in ascending shard order; within a
// group, op order is preserved — for the single-client envelopes
// devices send, that is exactly the sequential execution order.
func (s *ShardedServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	defer putBodyBuf(body)
	// The envelope codec follows the request's Content-Type; the reply
	// answers in kind. Decoded envelopes are value-identical across
	// codecs, so everything below this branch is codec-blind.
	binFrame := envelope.IsBinary(r.Header.Get("Content-Type"))
	var env batchMsg
	if binFrame {
		var err error
		if env, err = envelope.DecodeMsg(body); err != nil {
			http.Error(w, "malformed request: "+err.Error(), http.StatusBadRequest)
			return
		}
	} else if env, ok = envelope.ScanMsg(body); !ok {
		// Not the canonical rendering the shipped client sends: counted,
		// and encoding/json decides value, status and error text.
		s.wireFallback.Inc()
		var slow batchMsg // escapes into json.Unmarshal's any: allocated on this path only
		if !decodeBytes(w, body, &slow) {
			return
		}
		env = slow
	}
	limit := s.MaxBatchOps
	if limit <= 0 {
		limit = DefaultMaxBatchOps
	}
	if len(env.Ops) == 0 {
		http.Error(w, "empty batch: at least one op required", http.StatusBadRequest)
		return
	}
	if len(env.Ops) > limit {
		http.Error(w, fmt.Sprintf("batch of %d ops exceeds the %d-op limit", len(env.Ops), limit), http.StatusBadRequest)
		return
	}
	if herr := s.checkEnvelopeTenant(&env); herr != nil {
		// One mismatched op refuses the whole envelope before anything
		// executes, like any other envelope-level validation failure.
		http.Error(w, herr.msg, herr.status)
		return
	}
	// A device's wake-up is a handful of ops for one client, hence one
	// shard: its results, wire results and group index fit these
	// stack-resident arrays, and only larger or cross-shard envelopes
	// allocate.
	var (
		outArr [wakeupOps]stored
		resArr [wakeupOps]BatchOpResult
		idxArr [wakeupOps]int
	)
	out, results := outArr[:0], resArr[:0]
	if len(env.Ops) > wakeupOps {
		out, results = make([]stored, 0, len(env.Ops)), make([]BatchOpResult, 0, len(env.Ops))
	}
	out = out[:len(env.Ops)]
	valid := idxArr[:0]
	first, oneShard := -1, true
	for i := range env.Ops {
		op := &env.Ops[i]
		if herr := validateBatchOp(op); herr != nil {
			out[i] = refused(herr)
			s.batchInvalid.Inc()
			continue
		}
		si := s.shardFor(env.ClientOf(op)).idx
		if first < 0 {
			first = si
		}
		oneShard = oneShard && si == first
		valid = append(valid, i)
		s.batchSubops[op.Op].Inc()
	}
	switch {
	case len(valid) == 0:
	case oneShard:
		s.shards[first].requests.Inc()
		s.execGroup(s.shards[first], &env, valid, nil, out)
	default:
		groups := make([][]int, len(s.shards))
		for _, i := range valid {
			si := s.shardFor(env.ClientOf(&env.Ops[i])).idx
			groups[si] = append(groups[si], i)
		}
		for si, idxs := range groups {
			if len(idxs) > 0 {
				s.shards[si].requests.Inc()
				s.execGroup(s.shards[si], &env, idxs, nil, out)
			}
		}
	}
	s.batchSize.Observe(int64(len(env.Ops)))
	s.batchSaved.Add(int64(len(env.Ops) - 1))
	// The one conversion from the executor's currency to the wire result.
	for i, r := range out {
		results = append(results, opResult(env.Ops[i].Op, r))
	}
	buf := getBodyBuf()
	if binFrame {
		buf = envelope.AppendReply(buf, results)
		w.Header()["Content-Type"] = binContentType
	} else if buf, ok = envelope.AppendReplyJSON(buf, results); ok {
		buf = append(buf, '\n')
		w.Header()["Content-Type"] = jsonContentType
	} else {
		// An error text that needs escaping (it quotes the client's own
		// bytes back): encoding/json renders the reply. The copy keeps
		// the results array off the heap on every other path.
		putBodyBuf(buf)
		writeJSON(w, BatchReply{Results: append([]BatchOpResult(nil), results...)})
		return
	}
	w.Write(buf)
	putBodyBuf(buf)
}

// opResult converts a stored-form response into the wire result. A
// 429 carries its hint under the rule writeStored applies to the per-op
// Retry-After header.
func opResult(kind string, r stored) BatchOpResult {
	res := BatchOpResult{Op: kind, Status: r.status, Replayed: r.replayed}
	if r.status >= 400 {
		res.Error = strings.TrimSpace(string(r.body))
		if r.status == http.StatusTooManyRequests {
			res.RetryAfter = max(r.retryAfter, 1)
		}
	} else {
		res.Body = json.RawMessage(bytes.TrimSpace(r.body))
	}
	return res
}
