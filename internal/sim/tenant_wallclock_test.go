//go:build wallclock

package sim

// Built with -tags wallclock (make tenant), the tenant tier also bounds
// the victim's wall-clock slot p99 under the flood.
func init() { wallClockBounds = true }
