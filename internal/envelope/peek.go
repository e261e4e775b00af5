package envelope

import (
	"encoding/binary"
	"encoding/json"
)

// ClientID extracts the envelope default client id from a raw POST
// body, for routing tiers that place clients onto nodes without
// decoding full envelopes. Binary frames are sniffed by magic — the
// client id sits at the same offset in the plain (APB1) and the
// tenant-declaring (APB2) frame — and anything else is read as JSON
// carrying a "client" field (the envelope and every per-op POST body),
// so every codec yields the same routing decision. ok is false for
// bodies that name no client.
func ClientID(body []byte) (client int, ok bool) {
	if len(body) >= 12 {
		if m := [4]byte(body[:4]); m == binReqMagic || m == binReqMagic2 {
			return int(int64(binary.LittleEndian.Uint64(body[4:]))), true
		}
	}
	var env struct {
		Client *int `json:"client"`
	}
	if json.Unmarshal(body, &env) != nil || env.Client == nil {
		return 0, false
	}
	return *env.Client, true
}
