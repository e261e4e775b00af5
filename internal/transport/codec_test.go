package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/envelope"
)

// postBatchBinary ships one envelope through the handler over the
// binary codec, asserting the reply comes back binary too.
func postBatchBinary(t *testing.T, h http.Handler, env batchMsg) (int, BatchReply) {
	t.Helper()
	frame, err := envelope.AppendMsg(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(frame))
	req.Header.Set("Content-Type", BinaryBatchContentType)
	req.Header.Set(VersionHeader, "1;"+binVersionToken)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var reply BatchReply
	if rec.Code == http.StatusOK {
		if ct := rec.Header().Get("Content-Type"); ct != BinaryBatchContentType {
			t.Fatalf("binary request answered with Content-Type %q", ct)
		}
		if reply, err = envelope.DecodeReply(rec.Body.Bytes()); err != nil {
			t.Fatalf("decoding binary reply: %v", err)
		}
	}
	return rec.Code, reply
}

// TestBinaryBatchEndToEnd runs the same wake-up envelope through two
// identical stacks, one per codec, and requires byte-identical sub-op
// results — the server-level statement of codec equivalence.
func TestBinaryBatchEndToEnd(t *testing.T) {
	run := func(post func(*testing.T, http.Handler, batchMsg) (int, BatchReply)) BatchReply {
		ss, _ := newBatchStack(t, 2, 4)
		h := ss.Handler()
		startPeriod(t, h)
		imp := fetchImpression(t, h, 0)
		now := int64(3600 * 1e9)
		code, reply := post(t, h, batchMsg{Client: 0, NowNS: now, Ops: []BatchOp{
			{Op: OpSlot, Key: "s1"},
			{Op: OpReport, Key: "r1", Impression: imp},
			{Op: OpCancelled, IDs: []int64{imp, imp + 999}},
			{Op: OpOnDemand, Key: "o1", Categories: []string{"news"}},
			{Op: OpBundle, Key: "b1"},
		}})
		if code != http.StatusOK {
			t.Fatalf("batch: %d", code)
		}
		return reply
	}
	js := run(postBatch)
	bin := run(postBatchBinary)
	if len(js.Results) != len(bin.Results) {
		t.Fatalf("result counts differ: %d json vs %d binary", len(js.Results), len(bin.Results))
	}
	for i := range js.Results {
		j, b := js.Results[i], bin.Results[i]
		if j.Op != b.Op || j.Status != b.Status || j.Replayed != b.Replayed || j.Error != b.Error ||
			!bytes.Equal(j.Body, b.Body) {
			t.Fatalf("result %d differs across codecs:\n json:   %+v %s\n binary: %+v %s",
				i, j, j.Body, b, b.Body)
		}
	}
}

// TestBinaryBatchCrossCodecReplay pins the dedup window's codec
// independence: a keyed op executed over JSON and retried over the
// binary codec replays the stored response instead of re-executing.
func TestBinaryBatchCrossCodecReplay(t *testing.T) {
	ss, pool := newBatchStack(t, 1, 2)
	h := ss.Handler()
	startPeriod(t, h)
	imp := fetchImpression(t, h, 0)
	now := int64(3600 * 1e9)
	env := batchMsg{Client: 0, NowNS: now, Ops: []BatchOp{{Op: OpReport, Key: "xcodec", Impression: imp}}}

	code, first := postBatch(t, h, env)
	if code != http.StatusOK || first.Results[0].Status != http.StatusOK {
		t.Fatalf("json execute: %d %+v", code, first.Results)
	}
	code, second := postBatchBinary(t, h, env)
	if code != http.StatusOK {
		t.Fatalf("binary retry: %d", code)
	}
	r := second.Results[0]
	if !r.Replayed || r.Status != http.StatusOK || !bytes.Equal(r.Body, first.Results[0].Body) {
		t.Fatalf("binary retry did not replay the stored response: %+v", r)
	}
	if got := pool.Ledger().Billed; got != 1 {
		t.Fatalf("billed %d times across codec replay, want exactly 1", got)
	}
}

// TestBinaryVersionNegotiation: the ";bin" capability token rides the
// version header without changing its semantics — "1;bin" passes the
// gate, a wrong major with the token still fails it, and the server's
// echoed version stays the bare protocol number.
func TestBinaryVersionNegotiation(t *testing.T) {
	ss, _ := newBatchStack(t, 1, 2)
	h := ss.Handler()
	startPeriod(t, h)

	frame, err := envelope.AppendMsg(nil, batchMsg{Client: 0, NowNS: 1, Ops: []BatchOp{{Op: OpSlot}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		version string
		want    int
	}{
		{"1;bin", http.StatusOK},
		{"1", http.StatusOK}, // token optional: Content-Type alone selects the codec
		{"2;bin", http.StatusUpgradeRequired},
		{"one;bin", http.StatusBadRequest},
	} {
		req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(frame))
		req.Header.Set("Content-Type", BinaryBatchContentType)
		req.Header.Set(VersionHeader, tc.version)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Fatalf("version %q: got %d want %d (%s)", tc.version, rec.Code, tc.want, rec.Body.String())
		}
		if got := rec.Header().Get(VersionHeader); got != "1" {
			t.Fatalf("version %q: server echoed %q, want bare \"1\"", tc.version, got)
		}
	}
}

// TestBinaryDeviceAgainstJSONServer pins what a WithBinaryBatch device
// does against a server that is not its twin. There is no fallback: a
// JSON-only server cannot read the frame and answers 400, which the
// device returns as a definitive StatusError after one attempt (not
// ErrUnreachable — retrying the same bytes cannot help). What the device
// does adapt to is the reply: it is decoded by its own Content-Type, so
// a server that read the frame but answered in JSON is understood.
func TestBinaryDeviceAgainstJSONServer(t *testing.T) {
	newDevice := func(h http.Handler) *Device {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		d, err := NewDevice(0, 32, ts.URL, WithHTTPClient(ts.Client()), WithBatching(), WithBinaryBatch())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	jsonOnly := newDevice(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if envelope.IsBinary(r.Header.Get("Content-Type")) {
			http.Error(w, "malformed request: invalid character 'A' looking for beginning of value", http.StatusBadRequest)
			return
		}
		t.Errorf("a WithBinaryBatch device sent Content-Type %q", r.Header.Get("Content-Type"))
	}))
	err := jsonOnly.ObserveSlot(61e9)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest || errors.Is(err, ErrUnreachable) {
		t.Fatalf("binary frame against a JSON-only server: %v, want a definitive 400 StatusError", err)
	}
	if n := jsonOnly.Net(); n.Attempts != 1 || n.Unreachable != 0 || n.LostObservations != 0 {
		t.Fatalf("a definitive 400 must cost one attempt and lose nothing: %+v", n)
	}

	ad := AdMsg{ID: 7, DeadlineNS: 5400e9, Tie: 1}
	jsonReply := newDevice(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		env, err := envelope.DecodeMsg(body)
		if err != nil || len(env.Ops) != 1 || env.Ops[0].Op != OpBundle {
			t.Errorf("expected a one-op binary bundle envelope, got %+v, %v", env, err)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(BatchReply{Results: []BatchOpResult{
			{Op: OpBundle, Status: http.StatusOK, Body: bytes.TrimSpace(bundleReplyBody(BundleReply{Ads: []AdMsg{ad}}))},
		}})
	}))
	if n, err := jsonReply.FetchBundle(60e9); err != nil || n != 1 || jsonReply.CacheLen() != 1 {
		t.Fatalf("JSON reply to a binary request: %d ads, %v, %d cached", n, err, jsonReply.CacheLen())
	}
}
