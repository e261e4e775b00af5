package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/envelope"
	"repro/internal/simclock"
)

// TestDeviceWireGolden is the device-side twin of TestSequentialWireGolden:
// what "the device's bytes are unchanged" means in tier-1. It was recorded
// on the client before its requests stopped going through encoding/json,
// net/url and http.NewRequest (ISSUE 23), and a change to how the device
// builds or reads an exchange must leave testdata/device_wire_*.golden
// untouched. Regenerate — deliberately, after a reviewed protocol change —
// with ADPREFETCH_UPDATE_GOLDEN=1.

// wireRecorder is an http.RoundTripper over an in-memory Handler() that
// appends every exchange to a transcript: request URL, every header the
// client set (sorted), the content length net/http was told, the body;
// then status, every response header (sorted) and the body. linkDown
// makes matching requests fail like a dead link (recorded, never served);
// rewrite may replace the answer of an exchange the server already
// executed (the recorded reply is the rewritten one); served runs after
// each served exchange. While mute is set exchanges happen unrecorded.
type wireRecorder struct {
	h        http.Handler
	out      bytes.Buffer
	mute     bool
	linkDown func(*http.Request) bool
	rewrite  func(*http.Request, *httptest.ResponseRecorder)
	served   func(status int)
}

func writeHeaders(out *bytes.Buffer, prefix string, h http.Header) {
	names := make([]string, 0, len(h))
	for k := range h {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%s %s: %s\n", prefix, k, strings.Join(h[k], ", "))
	}
}

func (rt *wireRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
	}
	out := &rt.out
	if rt.mute {
		out = new(bytes.Buffer)
	}
	fmt.Fprintf(out, "%s %s\n", req.Method, req.URL)
	writeHeaders(out, ">", req.Header)
	if req.Body != nil {
		fmt.Fprintf(out, "> (content length %d, replayable %t)\n> %q\n", req.ContentLength, req.GetBody != nil, body)
	}
	if rt.linkDown != nil && rt.linkDown(req) {
		out.WriteString("< (link down)\n\n")
		return nil, errors.New("wire recorder: link down")
	}
	sreq := httptest.NewRequest(req.Method, req.URL.RequestURI(), bytes.NewReader(body))
	sreq.Header = req.Header.Clone()
	rec := httptest.NewRecorder()
	rt.h.ServeHTTP(rec, sreq)
	if rt.rewrite != nil {
		rt.rewrite(req, rec)
	}
	fmt.Fprintf(out, "< %d\n", rec.Code)
	writeHeaders(out, "<", rec.Header())
	fmt.Fprintf(out, "< %q\n\n", rec.Body.Bytes())
	if rt.served != nil {
		rt.served(rec.Code)
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// runDeviceSession scripts one session in the wire form opts select.
// Client 0 declares no tenant (the legacy wire, byte for byte: no tenant
// header, no envelope tenant field, APB1); client 6 declares pubB (the
// header, the tenant field, APB2) and never downloads its bundle, so its
// slot misses into a rescue with a top-up.
func runDeviceSession(t *testing.T, opts ...Option) []byte {
	t.Helper()
	s := newWireSession(t)
	rt := &wireRecorder{h: s.h}
	opts = append(opts, WithHTTPClient(&http.Client{Transport: rt}))
	step := func(format string, args ...any) {
		fmt.Fprintf(&rt.out, "## "+format+"\n", args...)
	}
	const base = "http://adserver.test/"

	step("period start")
	coord := NewCoordinator(base, opts...)
	if _, err := coord.StartPeriod(0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(0, 32, base, opts...)
	if err != nil {
		t.Fatal(err)
	}
	tenanted, err := NewDevice(6, 32, base, append(opts, WithTenant("pubB"))...)
	if err != nil {
		t.Fatal(err)
	}

	step("bundle fetch")
	if n, err := dev.FetchBundle(60e9); err != nil || n != 2 {
		t.Fatalf("bundle fetch: %d ads, %v", n, err)
	}
	step("slot hit with a cancellation probe")
	if out, err := dev.HandleSlot(120e9, nil); err != nil || !out.CacheHit {
		t.Fatalf("slot hit: %+v, %v", out, err)
	}
	step("slot hit while reports cannot be delivered")
	rt.linkDown = func(r *http.Request) bool { return r.URL.Path == "/v1/report" }
	if out, err := dev.HandleSlot(180e9, nil); err != nil || !out.CacheHit || !out.Deferred {
		t.Fatalf("slot hit, report deferred: %+v, %v", out, err)
	}
	rt.linkDown = nil
	step("deferred-report flush")
	dev.FlushDeferred(240e9)
	if n := dev.PendingReports(); n != 0 {
		t.Fatalf("%d reports still pending after the flush", n)
	}
	step("tenant-declaring device: slot miss, on-demand rescue with a top-up")
	if out, err := tenanted.HandleSlot(300e9, nil); err != nil || !out.Rescued || out.TopUpAds == 0 {
		t.Fatalf("slot miss: %+v, %v", out, err)
	}
	step("slot observation shed once (429), then retried")
	s.ss.MaxOpenBook = 1
	rt.served = func(int) { s.ss.MaxOpenBook = 0 }
	if err := dev.ObserveSlot(360e9); err != nil {
		t.Fatal(err)
	}
	if n := dev.Net(); n.Shed != 1 || n.Retries == 0 {
		t.Fatalf("the shed observation must be retried once: %+v", n)
	}
	step("ledger")
	if _, err := coord.Ledger(); err != nil {
		t.Fatal(err)
	}
	return rt.out.Bytes()
}

// failSlotOnce returns a wireRecorder rewrite that turns the first slot
// observation it sees — POST /v1/slot, or the slot sub-op of an envelope
// in either codec — into a 503 after the server executed it: the shape
// of a reply lost behind a failing proxy. Everything else in that
// envelope keeps the answer the server gave.
func failSlotOnce(t *testing.T) func(*http.Request, *httptest.ResponseRecorder) {
	done := false
	return func(req *http.Request, rec *httptest.ResponseRecorder) {
		if done {
			return
		}
		switch req.URL.Path {
		case "/v1/slot":
			rec.Code = http.StatusServiceUnavailable
			rec.Body.Reset()
			rec.Body.WriteString("injected after execution\n")
		case "/v1/batch":
			binary := envelope.IsBinary(rec.Header().Get("Content-Type"))
			var reply BatchReply
			var err error
			if binary {
				reply, err = envelope.DecodeReply(rec.Body.Bytes())
			} else {
				err = json.Unmarshal(rec.Body.Bytes(), &reply)
			}
			if err != nil {
				t.Fatalf("rewriting a batch reply: %v", err)
			}
			hit := false
			for i, r := range reply.Results {
				if r.Op == OpSlot {
					reply.Results[i] = BatchOpResult{Op: OpSlot, Status: http.StatusServiceUnavailable, Error: "injected after execution"}
					hit = true
				}
			}
			if !hit {
				return
			}
			rec.Body.Reset()
			if binary {
				rec.Body.Write(envelope.AppendReply(nil, reply.Results))
			} else {
				body, _ := envelope.AppendReplyJSON(nil, reply.Results)
				rec.Body.Write(append(body, '\n'))
			}
		default:
			return
		}
		done = true
	}
}

// runDegradedSession scripts what runDeviceSession leaves out: the paths a
// dead link, an unhealthy or refusing server and a full outbox take.
// After every step the transcript carries what the call returned and
// where it left the device (Net, Counters, PendingReports), so the
// accounting is pinned beside the bytes. Clients 0 and 1 hold two-ad
// bundles; client 2 never downloads its own. envelopes says the options
// select a batched wire form: the last step (an outbox past one
// envelope's room) exists only there.
func runDegradedSession(t *testing.T, envelopes bool, opts ...Option) []byte {
	t.Helper()
	s := newWireSession(t)
	rt := &wireRecorder{h: s.h}
	opts = append(opts, WithHTTPClient(&http.Client{Transport: rt}))
	step := func(format string, args ...any) {
		fmt.Fprintf(&rt.out, "## "+format+"\n", args...)
	}
	state := func(d *Device, format string, args ...any) {
		fmt.Fprintf(&rt.out, "= "+format+"\n", args...)
		fmt.Fprintf(&rt.out, "= net %+v\n= counters %+v\n= pending reports %d\n\n", d.Net(), d.Counters(), d.PendingReports())
	}
	everything := func(*http.Request) bool { return true }
	reports := func(r *http.Request) bool { return r.URL.Path == "/v1/report" }
	const base = "http://adserver.test/"

	coord := NewCoordinator(base, opts...)
	rt.mute = true
	if _, err := coord.StartPeriod(0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	rt.mute = false
	newDevice := func(id, cacheCap int) *Device {
		d, err := NewDevice(id, cacheCap, base, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	dev, probe, empty := newDevice(0, 32), newDevice(1, 32), newDevice(2, 32)

	// --- client 0: a link that dies with reports queued ---
	step("bundle fetch")
	n, err := dev.FetchBundle(60e9)
	if err != nil || n != 2 {
		t.Fatalf("bundle fetch: %d ads, %v", n, err)
	}
	state(dev, "%d ads, %v", n, err)

	step("slot hit while reports cannot be delivered")
	rt.linkDown = reports
	out, err := dev.HandleSlot(120e9, nil)
	state(dev, "%+v, %v", out, err)

	step("slot hit with the server fully down: a second report queues")
	rt.linkDown = everything
	out, err = dev.HandleSlot(180e9, nil)
	if err != nil || !out.CacheHit || !out.Degraded || dev.PendingReports() != 2 {
		t.Fatalf("offline hit: %+v, %v, %d pending", out, err, dev.PendingReports())
	}
	state(dev, "%+v, %v", out, err)

	step("slot miss with the server fully down: house ad")
	out, err = dev.HandleSlot(240e9, nil)
	if err != nil || out.Impression != 0 || !out.Degraded {
		t.Fatalf("offline miss: %+v, %v", out, err)
	}
	state(dev, "%+v, %v", out, err)

	step("bundle fetch with the server fully down: abandoned")
	n, err = dev.FetchBundle(300e9)
	state(dev, "%d ads, %v", n, err)

	step("flush while the server is down")
	dev.FlushDeferred(360e9)
	state(dev, "flushed")

	step("recovery: the flush settles both reports")
	rt.linkDown = nil
	dev.FlushDeferred(420e9)
	if p := dev.PendingReports(); p != 0 {
		t.Fatalf("%d reports still pending after recovery", p)
	}
	state(dev, "flushed")

	// --- client 2: nothing cached, nobody home ---
	step("empty device, slot miss with the server fully down")
	rt.linkDown = everything
	out, err = empty.HandleSlot(480e9, nil)
	state(empty, "%+v, %v", out, err)
	rt.linkDown = nil

	// --- client 1: an unhealthy server, then a refusing one ---
	step("bundle fetch")
	n, err = probe.FetchBundle(540e9)
	if err != nil || n != 2 {
		t.Fatalf("bundle fetch: %d ads, %v", n, err)
	}
	state(probe, "%d ads, %v", n, err)

	step("slot whose observation is shed on every attempt but whose cancellation probe lands")
	s.ss.MaxOpenBook = 1
	out, err = probe.HandleSlot(600e9, nil)
	if err != nil || !out.CacheHit || !out.Degraded {
		t.Fatalf("shed observation: %+v, %v", out, err)
	}
	state(probe, "%+v, %v", out, err)
	s.ss.MaxOpenBook = 0

	step("slot observation answered 503 after it executed: the retry replays")
	rt.rewrite = failSlotOnce(t)
	err = probe.ObserveSlot(660e9)
	state(probe, "%v", err)
	rt.rewrite = nil

	step("slot hit while reports cannot be delivered")
	rt.linkDown = reports
	out, err = probe.HandleSlot(720e9, nil)
	if err != nil || !out.CacheHit || probe.PendingReports() != 1 {
		t.Fatalf("slot hit: %+v, %v, %d pending", out, err, probe.PendingReports())
	}
	state(probe, "%+v, %v", out, err)
	rt.linkDown = nil

	step("wake-up of a client handed away meanwhile: the queued report is refused and lost, the slot's refusal is the returned error")
	s.do("migrate client 1 out", "POST", "/v1/admin/migrate/out", `{"epoch":1,"clients":[1]}`)
	out, err = probe.HandleSlot(780e9, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusMisdirectedRequest || probe.PendingReports() != 0 {
		t.Fatalf("moved client: %+v, %v, %d pending", out, err, probe.PendingReports())
	}
	state(probe, "%+v, %v", out, err)

	if !envelopes {
		return rt.out.Bytes()
	}

	// --- an outbox past one envelope's room: a deep bundle on its own
	// server, every display made while the link is down (unrecorded) ---
	const queued = DefaultMaxBatchOps - batchRoomForWakeup + 1
	deep, _ := newBatchStackSlots(t, 1, 1, 2*queued)
	rt.h = deep.Handler()
	startPeriod(t, rt.h)
	hoarder := newDevice(0, 4*queued)
	rt.mute = true
	if n, err := hoarder.FetchBundle(60e9); err != nil || n < queued {
		t.Fatalf("deep bundle: %d ads, %v; the step needs %d", n, err, queued)
	}
	rt.linkDown = everything
	for i := 0; i < queued; i++ {
		if out, err := hoarder.HandleSlot(simclock.Time(120+i)*simclock.Second, nil); err != nil || !out.CacheHit {
			t.Fatalf("offline hit %d: %+v, %v", i, out, err)
		}
	}
	rt.linkDown, rt.mute = nil, false
	step("flush of %d queued reports: two envelopes", queued)
	hoarder.FlushDeferred(600e9)
	if p := hoarder.PendingReports(); p != 0 {
		t.Fatalf("%d reports still pending after the flush", p)
	}
	state(hoarder, "flushed")
	return rt.out.Bytes()
}

func TestDeviceWireGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"sequential", nil},
		{"batch_json", []Option{WithBatching()}},
		{"batch_binary", []Option{WithBatching(), WithBinaryBatch()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, "device_wire_"+tc.name+".golden", runDeviceSession(t, tc.opts...))
			checkGolden(t, "device_wire_degraded_"+tc.name+".golden", runDegradedSession(t, len(tc.opts) > 0, tc.opts...))
		})
	}
}
