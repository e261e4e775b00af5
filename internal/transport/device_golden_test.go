package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
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
// served runs after each served exchange.
type wireRecorder struct {
	h        http.Handler
	out      bytes.Buffer
	linkDown func(*http.Request) bool
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
	fmt.Fprintf(&rt.out, "%s %s\n", req.Method, req.URL)
	writeHeaders(&rt.out, ">", req.Header)
	if req.Body != nil {
		fmt.Fprintf(&rt.out, "> (content length %d, replayable %t)\n> %q\n", req.ContentLength, req.GetBody != nil, body)
	}
	if rt.linkDown != nil && rt.linkDown(req) {
		rt.out.WriteString("< (link down)\n\n")
		return nil, errors.New("wire recorder: link down")
	}
	sreq := httptest.NewRequest(req.Method, req.URL.RequestURI(), bytes.NewReader(body))
	sreq.Header = req.Header.Clone()
	rec := httptest.NewRecorder()
	rt.h.ServeHTTP(rec, sreq)
	fmt.Fprintf(&rt.out, "< %d\n", rec.Code)
	writeHeaders(&rt.out, "<", rec.Header())
	fmt.Fprintf(&rt.out, "< %q\n\n", rec.Body.Bytes())
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
		})
	}
}
