package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
)

// BodyClientID extracts the envelope default client id from a raw POST
// body, for routing tiers that place clients onto nodes without
// decoding full envelopes. Binary batch frames are sniffed by magic —
// the client id sits at the same offset in the plain (APB1) and the
// tenant-declaring (APB2) frame — so every codec yields the same
// routing decision. ok is false for bodies that name no client.
func BodyClientID(body []byte) (client int, ok bool) {
	if len(body) >= 12 && (bytes.Equal(body[:4], binReqMagic[:]) || bytes.Equal(body[:4], binReqMagic2[:])) {
		return int(int64(binary.LittleEndian.Uint64(body[4:]))), true
	}
	var env struct {
		Client *int `json:"client"`
	}
	if json.Unmarshal(body, &env) != nil || env.Client == nil {
		return 0, false
	}
	return *env.Client, true
}
