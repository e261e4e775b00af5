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
	} else if !decodeBytes(w, body, &env) {
		return
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
	out := make([]stored, len(env.Ops))
	groups := make([][]int, len(s.shards))
	for i := range env.Ops {
		op := &env.Ops[i]
		if herr := validateBatchOp(op); herr != nil {
			out[i] = storedReply(nil, herr)
			s.batchInvalid.Inc()
			continue
		}
		si := s.shardFor(env.ClientOf(op)).idx
		groups[si] = append(groups[si], i)
		s.batchSubops[op.Op].Inc()
	}
	for si, idxs := range groups {
		if len(idxs) > 0 {
			s.shards[si].requests.Inc()
			s.execGroup(s.shards[si], &env, idxs, nil, out)
		}
	}
	s.batchSize.Observe(int64(len(env.Ops)))
	s.batchSaved.Add(int64(len(env.Ops) - 1))
	// The one conversion from the executor's currency to the wire result.
	results := make([]BatchOpResult, len(out))
	for i, r := range out {
		results[i] = opResult(env.Ops[i].Op, r)
	}
	if binFrame {
		buf := envelope.AppendReply(getBodyBuf(), results)
		w.Header().Set("Content-Type", BinaryBatchContentType)
		w.Write(buf)
		putBodyBuf(buf)
		return
	}
	writeJSON(w, BatchReply{Results: results})
}

// opResult converts a stored-form response into the wire result.
func opResult(kind string, r stored) BatchOpResult {
	res := BatchOpResult{Op: kind, Status: r.status, Replayed: r.replayed}
	if r.status >= 400 {
		res.Error = strings.TrimSpace(string(r.body))
	} else {
		res.Body = json.RawMessage(bytes.TrimSpace(r.body))
	}
	return res
}
