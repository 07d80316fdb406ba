// Package sim is a deterministic, process-oriented discrete-event
// simulation engine. Simulated processes run as coroutines, and exactly one
// of them (or the engine itself) executes at any moment, handing control
// back and forth by direct coroutine switches; events with equal timestamps
// are ordered by creation sequence, so a run is a pure function of its
// inputs.
//
// The rest of the repository builds a multicore-node memory-system model
// (package mem) and MPI-like ranks (package env) on top of this engine.
package sim

import "fmt"

// Time is a point in virtual time, in integer picoseconds. Picosecond
// granularity keeps bandwidth arithmetic exact (one byte at 20 GB/s is
// 50 ps) while int64 still spans over 100 virtual days.
type Time = int64

// Duration is a span of virtual time in picoseconds.
type Duration = int64

// Duration units.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// FmtTime renders a virtual time compactly for logs and test output.
func FmtTime(t Time) string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", t)
	}
}

// Micros converts a virtual duration to float microseconds (the unit used
// throughout the paper's figures).
func Micros(d Duration) float64 { return float64(d) / float64(Microsecond) }

// BytesOver returns the time to move n bytes at the given bandwidth in
// bytes/second, rounded up to a whole picosecond.
func BytesOver(n int64, bytesPerSec float64) Duration {
	if n <= 0 || bytesPerSec <= 0 {
		return 0
	}
	ps := float64(n) / bytesPerSec * float64(Second)
	d := Duration(ps)
	// Round up, with a relative epsilon so exact values (e.g. 20 bytes at
	// 20 GB/s = 1000 ps) do not get inflated by float slop.
	if float64(d) < ps*(1-1e-12) {
		d++
	}
	return d
}
