//go:build race

package link

// raceEnabled lets the exact allocation budget step aside under the
// race detector, which allocates on its own.
const raceEnabled = true
