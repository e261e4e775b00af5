package transport

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/envelope"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// The wire codec's contract, with encoding/json as the reference: every
// encoder equals json.Marshal or declines, every strict decoder's
// accepted value equals json.Unmarshal's, and the three traps the codec
// is designed around (size what you store, copy what you keep, the
// device's request body is its own) each have their test.

func randAds(r *rand.Rand) []AdMsg {
	switch r.Intn(6) {
	case 0:
		return nil
	case 1:
		return []AdMsg{}
	}
	ads := make([]AdMsg, 1+r.Intn(4))
	for i := range ads {
		ads[i] = AdMsg{ID: r.Int63(), DeadlineNS: r.Int63(), Tie: r.Uint64()}
		switch r.Intn(6) {
		case 0:
			ads[i] = AdMsg{} // zero impression
		case 1:
			ads[i] = AdMsg{ID: math.MinInt64, DeadlineNS: -1, Tie: math.MaxUint64}
		case 2:
			ads[i] = AdMsg{ID: math.MaxInt64, DeadlineNS: math.MaxInt64, Tie: 1e19}
		}
	}
	return ads
}

func randInt(r *rand.Rand) int64 {
	switch r.Intn(6) {
	case 0:
		return 0
	case 1:
		return -r.Int63()
	case 2:
		return math.MinInt64
	case 3:
		return math.MaxInt64
	}
	return r.Int63n(1 << uint(1+r.Intn(62)))
}

func plainStrings(ss []string) bool {
	for _, s := range ss {
		if _, ok := envelope.AppendJSONString(nil, s); !ok {
			return false
		}
	}
	return true
}

// TestWireEncodersMatchEncodingJSON: seeded differentials of every
// encoder in wirejson.go against json.Marshal (the two GET URIs against
// url.Values.Encode): nil vs empty lists, zero impressions, a
// max-uint64 tie, negative ids, categories that need escapes or are not
// ASCII. An encoder that declines must be one whose input needed an
// escape, and its caller-facing wrapper must then produce json.Marshal's
// bytes.
func TestWireEncodersMatchEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	same := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
		}
	}
	cats := []string{"news", "social", "", "a b", `q"uote`, "ünï", "<b>", "tab\t", "\xff"}
	for i := 0; i < 4000; i++ {
		client, now, imp := int(randInt(r)), randInt(r), randInt(r)
		same("slot", appendSlotMsg(nil, client, now), marshal(slotMsg{Client: client, NowNS: now}))
		same("report", appendReportMsg(nil, client, imp, now), marshal(reportMsg{Client: client, Impression: imp, NowNS: now}))

		od := onDemandMsg{Client: client, NowNS: now, NoRescue: r.Intn(2) == 0}
		switch r.Intn(4) {
		case 0:
			od.Categories = []string{}
		case 1, 2:
			for n := 1 + r.Intn(3); n > 0; n-- {
				od.Categories = append(od.Categories, cats[r.Intn(len(cats))])
			}
		}
		got, ok := appendOnDemandMsg([]byte("keep:"), od)
		switch {
		case ok != plainStrings(od.Categories):
			t.Fatalf("appendOnDemandMsg declined=%t for %q", !ok, od.Categories)
		case ok:
			same("ondemand", got, append([]byte("keep:"), marshal(od)...))
		default:
			same("a declining encoder hands dst back", got, []byte("keep:"))
		}
		same("ondemand body", onDemandBody(nil, od), marshal(od))

		bundle := BundleReply{Ads: randAds(r)}
		same("bundle reply", appendBundleReply(nil, bundle), marshal(bundle))
		rescue := OnDemandReply{Impression: imp, Rescued: r.Intn(2) == 0, TopUp: randAds(r)}
		same("ondemand reply", appendOnDemandReply(nil, rescue), marshal(rescue))
		var cancelled CancelledReply
		switch r.Intn(3) {
		case 0:
			cancelled.Cancelled = []int64{}
		case 1:
			for n := 1 + r.Intn(4); n > 0; n-- {
				cancelled.Cancelled = append(cancelled.Cancelled, randInt(r))
			}
		}
		same("cancelled reply", appendCancelledReply(nil, cancelled), marshal(cancelled))

		// The stored forms: the same bytes plus the newline, in exactly
		// the capacity they fill (shared constants aside).
		for what, pair := range map[string][2][]byte{
			"bundle":    {bundleReplyBody(bundle), marshal(BundleReply{Ads: nilIfEmpty(bundle.Ads)})},
			"ondemand":  {onDemandReplyBody(rescue), marshal(rescue)},
			"cancelled": {cancelledReplyBody(cancelled), marshal(cancelled)},
		} {
			body := pair[0]
			same(what+" body", body, append(pair[1], '\n'))
			if cap(body) != len(body) {
				t.Fatalf("%s body %s: cap %d, len %d", what, body, cap(body), len(body))
			}
		}

		q := url.Values{"client": {strconv.Itoa(client)}, "now_ns": {strconv.FormatInt(now, 10)}}
		same("bundle URI", appendBundleURI(nil, client, now), []byte("/v1/bundle?"+q.Encode()))
		ids := make([]string, 1+r.Intn(4))
		raw := make([]int64, len(ids))
		for j := range ids {
			raw[j] = randInt(r)
			ids[j] = strconv.FormatInt(raw[j], 10)
		}
		q["ids"] = []string{strings.Join(ids, ",")}
		same("cancelled URI", appendCancelledURI(nil, client, raw, now), []byte("/v1/cancelled?"+q.Encode()))
	}
}

// nilIfEmpty mirrors the server's empty-bundle constant: a drained shelf
// answers {"ads":null} whether the list was nil or empty.
func nilIfEmpty(ads []AdMsg) []AdMsg {
	if len(ads) == 0 {
		return nil
	}
	return ads
}

// wireGoldenBodies returns every request and response body in the wire
// goldens (the %q-quoted "> " and "< " lines of testdata/*.golden).
func wireGoldenBodies(tb testing.TB) [][]byte {
	tb.Helper()
	var bodies [][]byte
	files, err := filepath.Glob(filepath.Join("testdata", "*wire*.golden"))
	if err != nil || len(files) < 4 {
		tb.Fatalf("wire goldens: %v %v", files, err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if len(line) < 4 || (line[0] != '<' && line[0] != '>') {
				continue
			}
			text := line[2:]
			if text[0] == '"' {
				if text, err = strconv.Unquote(text); err != nil {
					continue
				}
			}
			if strings.HasPrefix(text, "{") {
				bodies = append(bodies, []byte(text))
			}
		}
	}
	return bodies
}

// parityCheck runs data through one strict decoder and, when it
// accepts, requires encoding/json to decode the same bytes to the same
// value.
func parityCheck[T any](t *testing.T, what string, data []byte, scan func([]byte) (T, bool)) {
	t.Helper()
	got, ok := scan(data)
	if !ok {
		return
	}
	var want T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s accepted %q, encoding/json refuses it: %v", what, data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s(%q):\n got %+v\njson %+v", what, data, got, want)
	}
}

// FuzzWireJSONParity: for arbitrary bytes, whenever a strict decoder
// accepts, its value is reflect.DeepEqual to json.Unmarshal's into a
// zero value — and no decoder panics. The decoders may decline anything;
// they may not disagree with encoding/json.
func FuzzWireJSONParity(f *testing.F) {
	for _, body := range wireGoldenBodies(f) {
		f.Add(body)
		f.Add(bytes.TrimSuffix(body, []byte("\n")))
	}
	for _, seed := range []string{
		``, `null`, `{}`, "{}\n", ` {}`, "{}\n\n", `{"client":1,"now_ns":2}`, `{"client":1,"now_ns":2} `,
		`{"now_ns":2,"client":1}`, `{"client":1,"client":2,"now_ns":3}`, `{"Client":1,"NOW_NS":2}`,
		`{"client":null,"now_ns":2}`, `{"client":1,"now_ns":-0}`, `{"client":01,"now_ns":2}`,
		`{"client":1,"now_ns":9223372036854775807}`, `{"client":1,"now_ns":9223372036854775808}`,
		`{"client":1,"now_ns":-9223372036854775808}`, `{"client":1,"now_ns":18446744073709551616}`,
		`{"client":1,"now_ns":2}x`, `{"client":1,"now_ns":2,"categories":["a","\u0062","ü",""]}`,
		`{"client":1,"now_ns":2,"categories":[],"no_rescue":false}`,
		`{"client":1,"impression":0,"now_ns":2}`, `{"client":1,"impression":-5,"now_ns":2}`,
		`{"client":1,"now_ns":2,"ops":[]}`, `{"client":1,"now_ns":2,"ops":null}`,
		`{"client":1,"now_ns":2,"tenant":"pubA","ops":[{"op":"report","key":"k","client":0,"now_ns":-1,"impression":7},{"op":"ondemand","categories":["news",""],"no_rescue":true},{"op":"cancelled","ids":[1,-2]},{"op":"teleport"}]}`,
		`{"results":[]}`, `{"results":null}`, `{"results":[{"op":"slot","status":200,"body":null}]}`,
		`{"results":[{"op":"","status":-1,"replayed":true,"error":"shed"},{"op":"bundle","status":200,"body":{"ads":[]}}]}` + "\n",
		`{"results":[{"op":"slot","status":200,"body":{"a":[1,{"b":"c d"},true,false,null,-7,12345678901234567890123]}}]}`,
		`{"ads":null}`, `{"ads":[]}`, `{"ads":[{"id":1,"deadline_ns":2,"tie":18446744073709551615}]}`,
		`{"ads":[{"id":1,"deadline_ns":2,"tie":18446744073709551616}]}`, `{"ads":[{"id":1,"deadline_ns":2,"tie":-1}]}`,
		`{"impression":0,"rescued":false}`, `{"impression":5,"rescued":true,"top_up":[]}`, `{"impression":5,"rescued":true,"top_up":null}`,
		`{"cancelled":null}`, `{"cancelled":[]}`, `{"cancelled":[3,2,1]}` + "\n", `{"cancelled":[1,]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		parityCheck(t, "ScanMsg", data, envelope.ScanMsg)
		parityCheck(t, "ScanReply", data, envelope.ScanReply)
		parityCheck(t, "scanSlotMsg", data, scanSlotMsg)
		parityCheck(t, "scanReportMsg", data, scanReportMsg)
		parityCheck(t, "scanOnDemandMsg", data, scanOnDemandMsg)
		parityCheck(t, "scanBundleReply", data, scanBundleReply)
		parityCheck(t, "scanOnDemandReply", data, scanOnDemandReply)
		parityCheck(t, "scanCancelledReply", data, scanCancelledReply)
		parityCheck(t, "scanAck", data, func(b []byte) (struct{}, bool) { return struct{}{}, scanAck(b) })
	})
}

// TestRequestHashIsFNV1a: the inlined digest equals hash/fnv's on random
// inputs — payload_hash is persisted in snapshots and migration blobs.
func TestRequestHashIsFNV1a(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		method := []string{"GET", "POST", ""}[r.Intn(3)]
		path := "/v1/" + strconv.Itoa(r.Intn(1000))
		payload := make([]byte, r.Intn(300))
		r.Read(payload)
		h := fnv.New64a()
		io.WriteString(h, method)
		io.WriteString(h, " ")
		io.WriteString(h, path)
		h.Write([]byte{0})
		h.Write(payload)
		if got, want := requestHash(method, path, payload), h.Sum64(); got != want {
			t.Fatalf("requestHash(%q, %q, %x) = %x, hash/fnv says %x", method, path, payload, got, want)
		}
	}
}

// TestHeaderConstantsAreCanonical: every header-name constant is in the
// canonical MIME form, so reading, writing or assigning it never
// re-canonicalizes (internal/cluster checks its own lists).
func TestHeaderConstantsAreCanonical(t *testing.T) {
	for _, k := range []string{VersionHeader, TenantHeader, idempotencyKeyHeader, attemptHeader, obs.ReplayedHeader} {
		if http.CanonicalHeaderKey(k) != k {
			t.Errorf("%q is not canonical (%q)", k, http.CanonicalHeaderKey(k))
		}
	}
}

// TestStoredBodiesAreExactSize is trap one — size what you store: the
// reply bodies a keyed op leaves in the dedup window occupy exactly the
// capacity they were rendered into, as json.Marshal's copy always did.
func TestStoredBodiesAreExactSize(t *testing.T) {
	s := newWireSession(t)
	s.do("period start", "POST", "/v1/period/start", `{"now_ns":0,"index":0,"of_day":0,"weekend":false}`)
	s.do("bundle", "GET", "/v1/bundle?client=0&now_ns=60000000000", "", goldenKeyHdr, "x-bundle")
	s.do("rescue", "POST", "/v1/ondemand", `{"client":6,"now_ns":303000000000}`, goldenKeyHdr, "x-rescue")
	s.do("envelope", "POST", "/v1/batch",
		`{"client":2,"now_ns":61000000000,"ops":[{"op":"bundle","key":"x-env-bundle"},{"op":"ondemand","key":"x-env-od","no_rescue":true}]}`)
	entries := s.ss.shards[0].dedup.entries
	for _, key := range []string{"x-bundle", "x-rescue", "x-env-bundle", "x-env-od"} {
		e, ok := entries[key]
		if !ok || e.status != http.StatusOK || len(e.body) < 20 {
			t.Fatalf("%s: no stored reply of substance: %+v", key, e)
		}
		if cap(e.body) != len(e.body) {
			t.Errorf("%s: stored body %s has cap %d, len %d", key, e.body, cap(e.body), len(e.body))
		}
	}
}

// TestKeyedOpsOutliveTheirRequestBuffer is trap two on the server — copy
// what you keep: request bodies are read into pooled buffers that die
// with the handler, while idempotency keys, tenants and categories
// outlive it. A first keyed request of each form must replay its stored
// bytes after a few hundred other requests have reused the pool's
// buffers (run under -race too: the race tier covers this package).
func TestKeyedOpsOutliveTheirRequestBuffer(t *testing.T) {
	s := newWireSession(t)
	s.do("period start", "POST", "/v1/period/start", `{"now_ns":0,"index":0,"of_day":0,"weekend":false}`)
	envelope := `{"client":5,"now_ns":61000000000,"tenant":"pubB","ops":[{"op":"ondemand","key":"keep-env-od","categories":["news","sport"],"no_rescue":true},{"op":"slot","key":"keep-env-slot"}]}`
	firstEnv := s.do("envelope", "POST", "/v1/batch", envelope).Body.String()
	firstOD := s.do("ondemand", "POST", "/v1/ondemand", `{"client":4,"now_ns":62000000000,"categories":["news"],"no_rescue":true}`,
		goldenKeyHdr, "keep-od").Body.String()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// Same length as the first requests' keys and strings, so a
				// key that aliased the buffer would now read as one of these.
				filler := fmt.Sprintf(`{"client":%d,"now_ns":%d,"tenant":"pubA","ops":[{"op":"ondemand","key":"fill-%d-%03d","categories":["xxxx","yyyyy"],"no_rescue":true},{"op":"slot","key":"fill-s-%d-%03d"}]}`,
					g%4, 70000000000+int64(i), g, i, g, i)
				req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(filler))
				s.h.ServeHTTP(httptest.NewRecorder(), req)
			}
		}(g)
	}
	wg.Wait()

	replay := s.do("envelope again", "POST", "/v1/batch", envelope).Body.String()
	want := strings.ReplaceAll(firstEnv, `"status":200,`, `"status":200,"replayed":true,`)
	if replay != want {
		t.Fatalf("the envelope's keyed ops did not replay their stored bytes:\n got %s\nwant %s", replay, want)
	}
	rec := s.do("ondemand again", "POST", "/v1/ondemand", `{"client":4,"now_ns":62000000000,"categories":["news"],"no_rescue":true}`, goldenKeyHdr, "keep-od")
	if rec.Body.String() != firstOD || rec.Header().Get(obs.ReplayedHeader) != "true" {
		t.Fatalf("the keyed on-demand did not replay: %q (%v), first %q", rec.Body, rec.Header(), firstOD)
	}
	for _, key := range []string{"keep-env-od", "keep-env-slot", "keep-od"} {
		if _, ok := s.ss.shards[0].dedup.entries[key]; !ok {
			t.Errorf("dedup window lost %q", key)
		}
	}
}

// TestReplyBufferMutationLeavesIngestedAdsUnchanged is trap two on the
// device: a JSON batch reply is read once and its result bodies alias
// that buffer, so everything the device keeps is decoded by value before
// the exchange returns. Scribbling over the buffer afterwards changes
// nothing the device ingested.
func TestReplyBufferMutationLeavesIngestedAdsUnchanged(t *testing.T) {
	d, err := NewDevice(0, 8, "http://adserver.test")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"results":[{"op":"bundle","status":200,"body":{"ads":[{"id":41,"deadline_ns":5400000000000,"tie":7},{"id":42,"deadline_ns":5400000000000,"tie":8}]}},{"op":"slot","status":429,"error":"shed"}]}` + "\n")
	var reply BatchReply
	if err := d.decodeReply("/v1/batch", false, data, &reply); err != nil {
		t.Fatal(err)
	}
	if body := reply.Results[0].Body; &body[0] != &data[bytes.Index(data, []byte(`{"ads"`))] {
		t.Fatal("a result body must alias the one buffer the reply was read into")
	}
	var bundle BundleReply
	if err := d.decodeSub(OpBundle, reply.Results[0].Body, &bundle); err != nil {
		t.Fatal(err)
	}
	d.dev.Assign(fromAdMsgs(bundle.Ads), true)
	for i := range data {
		data[i] = '9'
	}
	want := []AdMsg{{ID: 41, DeadlineNS: 5400000000000, Tie: 7}, {ID: 42, DeadlineNS: 5400000000000, Tie: 8}}
	if !reflect.DeepEqual(bundle.Ads, want) || !reflect.DeepEqual(d.dev.Cache.Snapshot(), fromAdMsgs(want)) {
		t.Fatalf("ingested ads changed with the buffer: %+v / %+v", bundle.Ads, d.dev.Cache.Snapshot())
	}
	if r := reply.Results[1]; r.Op != OpSlot || r.Error != "shed" {
		t.Fatalf("kinds and error texts are copies, got %+v", r)
	}
	if got := d.cm.wireFallback.Value(); got != 0 {
		t.Fatalf("the canonical reply fell back %d times", got)
	}
}

// heldBodies is a RoundTripper that fails its first n requests without
// reading them — keeping each request's body, as a transport's write
// loop may after Do has returned an error — and serves the rest.
type heldBodies struct {
	h    http.Handler
	n    int
	held []io.ReadCloser
	want [][]byte
}

func (rt *heldBodies) RoundTrip(req *http.Request) (*http.Response, error) {
	if len(rt.held) < rt.n && req.Body != nil {
		snap, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		want, _ := io.ReadAll(snap)
		rt.held, rt.want = append(rt.held, req.Body), append(rt.want, want)
		return nil, errors.New("held: link down")
	}
	rec := httptest.NewRecorder()
	rt.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// TestRequestBodyIsTheRequestsOwn is trap three: the device's request
// body is a *bytes.Reader over a buffer of its own — the transport sees
// ContentLength and GetBody (the goldens record both) — and neither is
// pooled or reused, so a body still held after RoundTrip returned an
// error reads the bytes it was sent with however many requests follow.
func TestRequestBodyIsTheRequestsOwn(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithBatching()}, {WithBatching(), WithBinaryBatch()}} {
		s := newWireSession(t)
		s.do("period start", "POST", "/v1/period/start", `{"now_ns":0,"index":0,"of_day":0,"weekend":false}`)
		rt := &heldBodies{h: s.h, n: 6}
		d, err := NewDevice(0, 32, "http://adserver.test", append(opts, WithHTTPClient(&http.Client{Transport: rt}))...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			now := int64(60e9) + int64(i)*1e9
			if err := d.ObserveSlot(simclock.Time(now)); err != nil {
				t.Fatal(err)
			}
			if _, err := d.HandleSlot(simclock.Time(now+5e8), nil); err != nil {
				t.Fatal(err)
			}
		}
		if len(rt.held) != rt.n {
			t.Fatalf("held %d bodies, want %d", len(rt.held), rt.n)
		}
		for i, body := range rt.held {
			got, err := io.ReadAll(body)
			if err != nil || !bytes.Equal(got, rt.want[i]) {
				t.Fatalf("held body %d reads %q (%v), was sent as %q", i, got, err, rt.want[i])
			}
		}
	}
}
