//go:build race

package trace

// raceEnabled lets exact allocation budgets step aside under the race
// detector, whose sync.Pool drops a share of what is put back.
const raceEnabled = true
