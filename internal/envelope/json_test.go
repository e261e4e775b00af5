package envelope

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// nastyStrings exercise every reason an encoder declines: the bytes
// json.Marshal escapes, non-ASCII text, invalid UTF-8. The empty string
// and plain text must not decline.
var nastyStrings = []string{
	"", "news", "a b", `say "hi"`, `back\slash`, "<script>", "a&b", "tab\there", "line\nbreak",
	"ünïcode", "日本", "\xff\xfe", " ", "del\x7f",
}

func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

// nastyEnv perturbs a random valid envelope with the cases the JSON
// rendering is sensitive to: nil vs empty slices, zero and negative
// payloads, extreme integers, strings of every kind.
func nastyEnv(r *rand.Rand) (env Msg, plain bool) {
	env = randEnv(r)
	str := func(orig string) string {
		if r.Intn(3) != 0 {
			return orig
		}
		return nastyStrings[r.Intn(len(nastyStrings))]
	}
	env.Tenant = str(env.Tenant)
	switch r.Intn(8) {
	case 0:
		env.Ops = nil
	case 1:
		env.Ops = []Op{}
	case 2:
		env.Client, env.NowNS = math.MinInt64, math.MinInt64
	case 3:
		env.Client, env.NowNS = -1, math.MaxInt64
	}
	for i := range env.Ops {
		op := &env.Ops[i]
		op.Op, op.Key = str(op.Op), str(op.Key)
		for j := range op.Categories {
			op.Categories[j] = str(op.Categories[j])
		}
		switch r.Intn(8) {
		case 0:
			op.Impression = 0
		case 1:
			op.Impression = -r.Int63()
		case 2:
			op.Categories, op.IDs = []string{}, []int64{}
		case 3:
			op.IDs = []int64{math.MinInt64, -1, 0, math.MaxInt64}
		case 4:
			zero, min := 0, int64(math.MinInt64)
			op.Client, op.NowNS = &zero, &min
		}
	}
	plain = plainString(env.Tenant)
	for _, op := range env.Ops {
		plain = plain && plainString(op.Op) && plainString(op.Key)
		for _, c := range op.Categories {
			plain = plain && plainString(c)
		}
	}
	return env, plain
}

// TestJSONEncodersMatchEncodingJSON: over seeded envelopes and replies,
// an encoder's bytes are json.Marshal's, or it declines — and it
// declines only when some string needs an escape.
func TestJSONEncodersMatchEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	prefix := []byte("keep:")
	for i := 0; i < 4000; i++ {
		env, plain := nastyEnv(r)
		want, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := AppendMsgJSON(prefix, &env)
		switch {
		case ok != plain:
			t.Fatalf("AppendMsgJSON declined=%t for %s (plain=%t)", !ok, want, plain)
		case ok && !bytes.Equal(got, append([]byte("keep:"), want...)):
			t.Fatalf("AppendMsgJSON:\n got %s\nwant keep:%s", got, want)
		case !ok && !bytes.Equal(got, prefix):
			t.Fatalf("a declining encoder must hand dst back unchanged, got %q", got)
		}

		results, plain := nastyResults(r)
		want, err = json.Marshal(Reply{Results: results})
		if err != nil {
			t.Fatal(err)
		}
		got, ok = AppendReplyJSON(prefix, results)
		switch {
		case ok != plain:
			t.Fatalf("AppendReplyJSON declined=%t for %s (plain=%t)", !ok, want, plain)
		case ok && !bytes.Equal(got, append([]byte("keep:"), want...)):
			t.Fatalf("AppendReplyJSON:\n got %s\nwant keep:%s", got, want)
		case !ok && !bytes.Equal(got, prefix):
			t.Fatalf("a declining encoder must hand dst back unchanged, got %q", got)
		}
	}
}

func nastyResults(r *rand.Rand) (results []Result, plain bool) {
	plain = true
	switch r.Intn(10) {
	case 0:
		return nil, true
	case 1:
		return []Result{}, true
	}
	bodies := []string{
		`{}`, `{"ads":null}`, `{"cancelled":[1,-2,3]}`, `null`, `"text"`, `-12`,
		`{"impression":9007199254740993,"rescued":true,"top_up":[{"id":1,"deadline_ns":2,"tie":18446744073709551615}]}`,
	}
	errors := []string{
		"shard overloaded: slot observation shed", `unknown batch op "nope"`, "bad <id>", "ünïcode",
	}
	for n := 1 + r.Intn(5); n > 0; n-- {
		res := Result{Op: Kinds[r.Intn(len(Kinds))], Status: 200, Replayed: r.Intn(3) == 0}
		switch r.Intn(6) {
		case 0:
			res.Status = 400 + r.Intn(200)
			res.Error = errors[r.Intn(len(errors))]
			plain = plain && plainString(res.Error)
		case 1:
			res.Op = "" // an unknown kind echoed back
		case 2:
			res.Status, res.Body = -1, json.RawMessage{}
		default:
			res.Body = json.RawMessage(bodies[r.Intn(len(bodies))])
		}
		results = append(results, res)
	}
	return results, plain
}

// TestJSONReplyBodyDeclines: a result body that is not compact,
// escape-free ASCII — which json.Marshal would compact or escape — makes
// the reply encoder decline rather than copy it through.
func TestJSONReplyBodyDeclines(t *testing.T) {
	for _, body := range []string{`{"a": 1}`, "{\n}", `{"a":"<"}`, `{"a":"ü"}`, `{"a":"\n"}`, `"a b"`} {
		if _, ok := AppendReplyJSON(nil, []Result{{Op: OpSlot, Status: 200, Body: json.RawMessage(body)}}); ok {
			t.Errorf("body %q was copied through", body)
		}
	}
}

// TestJSONScanRoundTrip: what the encoders render, the strict decoders
// accept, and the value is the one json.Unmarshal decodes.
func TestJSONScanRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		env := randEnv(r)
		raw, ok := AppendMsgJSON(nil, &env)
		if !ok {
			t.Fatalf("declined a plain envelope %+v", env)
		}
		got, ok := ScanMsg(raw)
		if !ok {
			t.Fatalf("ScanMsg declined its own encoder's %s", raw)
		}
		var want Msg
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ScanMsg(%s):\n got %+v\nwant %+v", raw, got, want)
		}

		results, plain := nastyResults(r)
		if !plain || results == nil {
			continue
		}
		raw, _ = AppendReplyJSON(nil, results)
		for _, doc := range [][]byte{raw, append(raw[:len(raw):len(raw)], '\n')} {
			got, ok := ScanReply(doc)
			if !ok {
				t.Fatalf("ScanReply declined its own encoder's %q", doc)
			}
			var want Reply
			if err := json.Unmarshal(doc, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ScanReply(%s):\n got %+v\nwant %+v", doc, got, want)
			}
		}
	}
}

// TestJSONScanDeclines: everything outside the canonical rendering is
// declined, however valid encoding/json finds it.
func TestJSONScanDeclines(t *testing.T) {
	ok := `{"client":1,"now_ns":2,"ops":[{"op":"slot","key":"k"}]}`
	if _, accepted := ScanMsg([]byte(ok)); !accepted {
		t.Fatalf("declined the canonical %s", ok)
	}
	for _, doc := range []string{
		``, `null`, `{}`, ` ` + ok, ok + ` `, ok + "\n", ok + `x`,
		`{"now_ns":2,"client":1,"ops":[{"op":"slot"}]}`,                       // reordered
		`{"client":1,"client":1,"now_ns":2,"ops":[{"op":"slot"}]}`,            // duplicate
		`{"Client":1,"now_ns":2,"ops":[{"op":"slot"}]}`,                       // case-folded
		`{"client": 1,"now_ns":2,"ops":[{"op":"slot"}]}`,                      // whitespace
		`{"client":01,"now_ns":2,"ops":[{"op":"slot"}]}`,                      // leading zero
		`{"client":-0,"now_ns":2,"ops":[{"op":"slot"}]}`,                      // -0
		`{"client":1.0,"now_ns":2,"ops":[{"op":"slot"}]}`,                     // fraction
		`{"client":1e3,"now_ns":2,"ops":[{"op":"slot"}]}`,                     // exponent
		`{"client":1,"now_ns":9223372036854775808,"ops":[{"op":"slot"}]}`,     // out of range
		`{"client":1,"now_ns":-9223372036854775809,"ops":[{"op":"slot"}]}`,    // out of range
		`{"client":1,"now_ns":99999999999999999999,"ops":[{"op":"slot"}]}`,    // 20 digits
		`{"client":1,"now_ns":2,"tenant":"","ops":[{"op":"slot"}]}`,           // empty omitempty
		`{"client":1,"now_ns":2,"ops":null}`,                                  // null list
		`{"client":1,"now_ns":2,"ops":[{"op":"slot","key":""}]}`,              // empty omitempty
		`{"client":1,"now_ns":2,"ops":[{"op":"slot","impression":0}]}`,        // zero omitempty
		`{"client":1,"now_ns":2,"ops":[{"op":"slot","no_rescue":false}]}`,     // zero omitempty
		`{"client":1,"now_ns":2,"ops":[{"op":"slot","ids":[]}]}`,              // empty omitempty
		`{"client":1,"now_ns":2,"ops":[{"op":"slot","categories":[]}]}`,       // empty omitempty
		`{"client":1,"now_ns":2,"ops":[{"op":"slot","client":null}]}`,         // null pointer
		`{"client":1,"now_ns":2,"ops":[{"op":"sl` + "\\" + `u006ft"}]}`,       // escape
		`{"client":1,"now_ns":2,"ops":[{"op":"slot","key":"ü"}]}`,             // non-ASCII
		`{"client":1,"now_ns":2,"ops":[{"op":"slot","ids":[1,2]},]}`,          // trailing comma
		`{"client":1,"now_ns":2,"ops":[{"op":"slot","ids":[1,2],"key":"k"}]}`, // key out of order
		`{"client":1,"now_ns":2,"ops":[{"op":"slot"}],"extra":1}`,             // unknown field
		`{"client":1,"now_ns":2,"ops":[{"op":"slot"}`,                         // truncated
	} {
		if m, accepted := ScanMsg([]byte(doc)); accepted {
			t.Errorf("ScanMsg accepted %q as %+v", doc, m)
		}
	}
	okReply := `{"results":[{"op":"slot","status":200,"body":{}}]}`
	if _, accepted := ScanReply([]byte(okReply + "\n")); !accepted {
		t.Fatalf("declined the canonical %s", okReply)
	}
	for _, doc := range []string{
		okReply + "\n\n", okReply + " ", `{"results":null}`,
		`{"results":[{"op":"slot","status":200,"body":{ }}]}`,
		`{"results":[{"op":"slot","status":200,"body":{,}}]}`,
		`{"results":[{"op":"slot","status":200,"body":{"a"}}]}`,
		`{"results":[{"op":"slot","status":200,"body":[1,]}]}`,
		`{"results":[{"op":"slot","status":200,"body":1.5}]}`,
		`{"results":[{"op":"slot","status":200,"body":-0}]}`,
		`{"results":[{"op":"slot","status":200,"body":tru}]}`,
		`{"results":[{"op":"slot","status":200,"body":}]}`,
		`{"results":[{"op":"slot","status":200,"body":[[[[[[[[[[1]]]]]]]]]]}]}`,
		`{"results":[{"op":"slot","status":200,"error":""}]}`,
		`{"results":[{"op":"slot","status":200,"replayed":false}]}`,
		`{"results":[{"status":200,"op":"slot"}]}`,
	} {
		if r, accepted := ScanReply([]byte(doc)); accepted {
			t.Errorf("ScanReply accepted %q as %+v", doc, r)
		}
	}
}

// TestJSONScanCopiesWhatItKeeps: a decoded envelope survives its request
// buffer being reused — kinds are interned, every other string copied —
// while a decoded reply's bodies alias the buffer they were read into.
func TestJSONScanCopiesWhatItKeeps(t *testing.T) {
	raw := []byte(`{"client":1,"now_ns":2,"tenant":"pubA","ops":[{"op":"ondemand","key":"k-1","now_ns":7,"categories":["news","sport"]},{"op":"teleport"}]}`)
	got, ok := ScanMsg(raw)
	if !ok {
		t.Fatal("declined")
	}
	var want Msg
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 'x'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the envelope aliased its buffer:\n got %+v\nwant %+v", got, want)
	}

	raw = []byte(`{"results":[{"op":"bundle","status":200,"body":{"ads":null}},{"op":"slot","status":429,"error":"shed"}]}` + "\n")
	reply, ok := ScanReply(raw)
	if !ok {
		t.Fatal("declined")
	}
	body := reply.Results[0].Body
	for i := range raw {
		raw[i] = 'x'
	}
	if reply.Results[0].Op != OpBundle || reply.Results[1].Error != "shed" {
		t.Fatalf("kinds and error texts must be copies: %+v", reply.Results)
	}
	if string(body) != "xxxxxxxxxxxx" {
		t.Fatalf("a reply body aliases the read buffer (one read, no copy), got %q", body)
	}
}

// TestResultRetryAfter: a 429 result's hint crosses both reply codecs —
// the JSON encoder renders it as json.Marshal does (after the error,
// omitted when zero), the strict decoder reads it back and declines a
// zero nobody renders, and the binary frame carries it behind flag 2.
func TestResultRetryAfter(t *testing.T) {
	results := []Result{
		{Op: OpSlot, Status: 429, Error: "shard overloaded: slot observation shed", RetryAfter: 8},
		{Op: OpCancelled, Status: 200, Body: json.RawMessage(`{"cancelled":null}`)},
		{Op: OpOnDemand, Status: 429, Replayed: true, Error: "shed", RetryAfter: 1},
	}
	raw, ok := AppendReplyJSON(nil, results)
	if !ok {
		t.Fatal("declined")
	}
	want, err := json.Marshal(Reply{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("JSON reply:\n got %s\nwant %s", raw, want)
	}
	if got, ok := ScanReply(raw); !ok || !reflect.DeepEqual(got.Results, results) {
		t.Fatalf("ScanReply(%s) = %+v, %v", raw, got.Results, ok)
	}
	if _, ok := ScanReply([]byte(`{"results":[{"op":"slot","status":429,"retry_after":0}]}`)); ok {
		t.Fatal("accepted a zero retry_after, which omitempty never renders")
	}
	got, err := DecodeReply(AppendReply(nil, results))
	if err != nil || !reflect.DeepEqual(got.Results, results) {
		t.Fatalf("binary reply round trip: %+v, %v", got.Results, err)
	}
}
