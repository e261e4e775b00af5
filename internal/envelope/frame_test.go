package envelope

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randEnv generates a random but valid batch envelope. Slices are nil
// when empty (matching what the JSON decoder produces), so round-trip
// comparisons can use reflect.DeepEqual.
func randEnv(r *rand.Rand) Msg {
	env := Msg{Client: r.Intn(1 << 20), NowNS: r.Int63()}
	if r.Intn(3) == 0 {
		env.Tenant = randKey(r) // exercises the APB2 tenant frame
	}
	nops := 1 + r.Intn(6)
	for i := 0; i < nops; i++ {
		op := Op{Op: Kinds[r.Intn(len(Kinds))]}
		if r.Intn(2) == 0 {
			op.Key = randKey(r)
		}
		if r.Intn(3) == 0 {
			cl := r.Intn(1 << 20)
			op.Client = &cl
		}
		if r.Intn(3) == 0 {
			now := r.Int63()
			op.NowNS = &now
		}
		switch op.Op {
		case OpReport:
			op.Impression = r.Int63()
		case OpOnDemand:
			op.NoRescue = r.Intn(2) == 0
			for j := r.Intn(4); j > 0; j-- {
				op.Categories = append(op.Categories, randKey(r))
			}
		case OpCancelled:
			for j := r.Intn(5); j > 0; j-- {
				op.IDs = append(op.IDs, r.Int63())
			}
		}
		env.Ops = append(env.Ops, op)
	}
	return env
}

func randKey(r *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_"
	b := make([]byte, 1+r.Intn(24))
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// TestBinaryCodecRoundTrip: encode -> decode reproduces the envelope
// exactly, across randomly generated envelopes of every op kind.
func TestBinaryCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		env := randEnv(r)
		frame, err := AppendMsg(nil, env)
		if err != nil {
			t.Fatalf("encode %+v: %v", env, err)
		}
		got, err := DecodeMsg(frame)
		if err != nil {
			t.Fatalf("decode %+v: %v", env, err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("round trip diverged:\n sent: %+v\n got:  %+v", env, got)
		}
	}
}

// TestBinaryCodecMatchesJSON pins codec equivalence at the decode
// boundary: the same envelope shipped through the JSON codec and
// through the binary codec must decode to identical Msg values —
// the property everything downstream (validation, fingerprints, WAL
// records) relies on to stay codec-blind.
func TestBinaryCodecMatchesJSON(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		env := randEnv(r)
		js, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON Msg
		if err := json.Unmarshal(js, &viaJSON); err != nil {
			t.Fatal(err)
		}
		frame, err := AppendMsg(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		viaBin, err := DecodeMsg(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaBin, viaJSON) {
			t.Fatalf("codecs decode differently:\n json:   %+v\n binary: %+v", viaJSON, viaBin)
		}
	}
}

// TestBinaryReplyRoundTrip covers the response direction, including
// replayed flags, error results, and empty bodies.
func TestBinaryReplyRoundTrip(t *testing.T) {
	results := []Result{
		{Op: OpSlot, Status: 200, Body: json.RawMessage(`{}`)},
		{Op: OpReport, Status: 200, Replayed: true, Body: json.RawMessage(`{}`)},
		{Op: OpReport, Status: 400, Error: "report 9 rejected: no such impression"},
		{Op: OpOnDemand, Status: 429, Error: "shard overloaded: on-demand sale shed"},
		{Op: OpCancelled, Status: 200, Body: json.RawMessage(`{"cancelled":[3,4]}`)},
		{Op: OpBundle, Status: 200, Replayed: true, Body: json.RawMessage(`{"ads":[]}`)},
	}
	frame := AppendReply(nil, results)
	got, err := DecodeReply(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, results) {
		t.Fatalf("reply round trip diverged:\n sent: %+v\n got:  %+v", results, got.Results)
	}
}

// goldenEnv / goldenFrame pin the binary wire format byte-for-byte. The
// same bytes are asserted against the chaos proxy's independent frame
// walker in internal/faults (TestBinBatchWalkGoldenFrame); changing the
// format requires updating both, which is the point.
func goldenEnv() Msg {
	cl := 9
	now := int64(70)
	return Msg{Client: 5, NowNS: 60, Ops: []Op{
		{Op: OpSlot, Key: "k1"},
		{Op: OpReport, Key: "k2", Client: &cl, Impression: 77},
		{Op: OpOnDemand, NowNS: &now, NoRescue: true, Categories: []string{"news"}},
		{Op: OpCancelled, IDs: []int64{1, 2}},
		{Op: OpBundle, Key: "k5"},
	}}
}

func goldenFrame() []byte {
	return []byte{
		'A', 'P', 'B', '1',
		5, 0, 0, 0, 0, 0, 0, 0, // client
		60, 0, 0, 0, 0, 0, 0, 0, // now_ns
		5, 0, // nops
		1, 0, 2, 'k', '1', // slot, key "k1"
		2, 1, 2, 'k', '2', 9, 0, 0, 0, 0, 0, 0, 0, 77, 0, 0, 0, 0, 0, 0, 0, // report, client override, impression
		3, 6, 0, 70, 0, 0, 0, 0, 0, 0, 0, 1, 4, 'n', 'e', 'w', 's', // ondemand, now override + no_rescue, 1 category
		4, 0, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, // cancelled, 2 ids
		5, 0, 2, 'k', '5', // bundle, key "k5"
	}
}

func TestBinaryCodecGoldenFrame(t *testing.T) {
	frame, err := AppendMsg(nil, goldenEnv())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, goldenFrame()) {
		t.Fatalf("golden frame diverged:\n got:  %v\n want: %v", frame, goldenFrame())
	}
	env, err := DecodeMsg(goldenFrame())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(env, goldenEnv()) {
		t.Fatalf("golden decode diverged: %+v", env)
	}
}

// TestBinaryCodecRejects covers the encoder's frame limits and the
// decoder's malformed-frame taxonomy.
func TestBinaryCodecRejects(t *testing.T) {
	if _, err := AppendMsg(nil, Msg{Ops: []Op{{Op: "fetch"}}}); err == nil {
		t.Fatal("unknown op kind encoded")
	}
	if _, err := AppendMsg(nil, Msg{Ops: []Op{{Op: OpSlot, Key: strings.Repeat("k", 256)}}}); err == nil {
		t.Fatal("256-byte key encoded")
	}
	good, err := AppendMsg(nil, goldenEnv())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMsg(good[:len(good)-1]); err == nil {
		t.Fatal("truncated frame decoded")
	}
	if _, err := DecodeMsg(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := DecodeMsg(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte{}, good...)
	bad[22] = 99 // first op's kind byte
	if _, err := DecodeMsg(bad); err == nil {
		t.Fatal("unknown kind byte accepted")
	}
}

// FuzzFrameDecode throws arbitrary bytes at both frame decoders and the
// client-id peek: they must reject or accept without panicking, any
// frame they accept must survive a re-encode/re-decode cycle unchanged
// (the canonical-form property the differential tiers rely on), and the
// peek must agree with the full decode on every frame the decoder
// accepts — a router and the node it forwards to never disagree about
// whose envelope it is.
func FuzzFrameDecode(f *testing.F) {
	f.Add(goldenFrame())
	f.Add(AppendReply(nil, []Result{{Op: OpSlot, Status: 200, Body: json.RawMessage(`{}`)}}))
	f.Add([]byte("APB1"))
	f.Add([]byte("APB2\x05\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("APR1"))
	f.Add([]byte{})
	f.Add([]byte(`{"client":0,"now_ns":0,"ops":[{"op":"slot"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if env, err := DecodeMsg(data); err == nil {
			re, err := AppendMsg(nil, env)
			if err != nil {
				t.Fatalf("accepted frame re-encode failed: %v (%+v)", err, env)
			}
			env2, err := DecodeMsg(re)
			if err != nil {
				t.Fatalf("re-encoded frame rejected: %v", err)
			}
			if !reflect.DeepEqual(env2, env) {
				t.Fatalf("decode not stable:\n first:  %+v\n second: %+v", env, env2)
			}
			if c, ok := ClientID(data); !ok || c != env.Client {
				t.Fatalf("peek read client %d (ok=%v) from a frame that decodes to client %d", c, ok, env.Client)
			}
		}
		if reply, err := DecodeReply(data); err == nil {
			re := AppendReply(nil, reply.Results)
			reply2, err := DecodeReply(re)
			if err != nil {
				t.Fatalf("re-encoded reply rejected: %v", err)
			}
			if len(reply2.Results) != len(reply.Results) {
				t.Fatalf("reply decode not stable: %d vs %d results", len(reply.Results), len(reply2.Results))
			}
		}
		ClientID(data) // must not panic on anything
	})
}

// TestClientIDPeek pins the routing peek on every body a device sends:
// both frame magics, the JSON envelope and a per-op POST body, plus the
// bodies that name no client.
func TestClientIDPeek(t *testing.T) {
	apb1, err := AppendMsg(nil, Msg{Client: 41, Ops: []Op{{Op: OpSlot}}})
	if err != nil {
		t.Fatal(err)
	}
	apb2, err := AppendMsg(nil, Msg{Client: -7, Tenant: "pubA", Ops: []Op{{Op: OpSlot}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		body   []byte
		client int
		ok     bool
	}{
		{"APB1", apb1, 41, true},
		{"APB2", apb2, -7, true},
		{"json envelope", []byte(`{"client":9,"ops":[{"op":"slot"}]}`), 9, true},
		{"per-op body", []byte(`{"client":3,"now_ns":1}`), 3, true},
		{"no client field", []byte(`{"now_ns":1}`), 0, false},
		{"truncated frame header", apb1[:11], 0, false},
		{"reply frame", AppendReply(nil, nil), 0, false},
		{"empty", nil, 0, false},
	} {
		if c, ok := ClientID(tc.body); c != tc.client || ok != tc.ok {
			t.Errorf("%s: ClientID = %d, %v; want %d, %v", tc.name, c, ok, tc.client, tc.ok)
		}
	}
}
