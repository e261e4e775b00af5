package faults

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/envelope"
	"repro/internal/simclock"
)

// TestBatchIdentitiesCodecAgnostic: the chaos layer must draw the same
// per-sub-op identities whichever codec carried the envelope, so fault
// schedules stay aligned across the binary-vs-JSON differential runs —
// and the partition guard must read the same (client, now) out of both.
func TestBatchIdentitiesCodecAgnostic(t *testing.T) {
	cl, now := 9, int64(70)
	for _, tenant := range []string{"", "pubA"} { // APB1, APB2
		env := envelope.Msg{Client: 5, NowNS: 60, Tenant: tenant, Ops: []envelope.Op{
			{Op: envelope.OpSlot, Key: "k1"},
			{Op: envelope.OpReport, Key: "k2", Client: &cl, Impression: 77},
			{Op: envelope.OpOnDemand, NowNS: &now, NoRescue: true, Categories: []string{"news"}},
			{Op: envelope.OpCancelled, IDs: []int64{1, 2}},
			{Op: envelope.OpBundle, Key: "k5"},
		}}
		jsonBody, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := envelope.AppendMsg(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{frame, jsonBody} {
			r := httptest.NewRequest(http.MethodPost, BatchPath, bytes.NewReader(body))
			ids := batchIdentities(r)
			if want := []string{"k1", "k2", "k5"}; !reflect.DeepEqual(ids, want) {
				t.Fatalf("tenant %q: identities %v, want %v", tenant, ids, want)
			}
			c, at, ok := clientAndNow(r)
			if !ok || c != 5 || at != simclock.Time(60) {
				t.Fatalf("tenant %q: client %d now %d ok=%v, want 5 / 60", tenant, c, at, ok)
			}
			// The body must be restored for the next reader in the chain.
			rest, err := io.ReadAll(r.Body)
			if err != nil || !bytes.Equal(rest, body) {
				t.Fatalf("the fault layer consumed the body: %d of %d bytes left (err %v)", len(rest), len(body), err)
			}
		}
		// Anything short of a complete frame is not an envelope: no
		// identities, never a misparse.
		r := httptest.NewRequest(http.MethodPost, BatchPath, bytes.NewReader(frame[:len(frame)-1]))
		if ids := batchIdentities(r); ids != nil {
			t.Fatalf("tenant %q: truncated frame yielded identities %v", tenant, ids)
		}
	}
}
