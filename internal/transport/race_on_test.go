//go:build race

package transport

// raceEnabled lets the exact allocation budget step aside under the
// race detector, where sync.Pool deliberately drops a quarter of its
// Puts and the per-request count stops being a constant.
const raceEnabled = true
