// Package sim provides the simulation primitives shared by the DTN
// engine and the mobility generators: the virtual time type and seeded,
// per-encounter reseedable random-number streams.
//
// The package is deliberately independent of DTN concepts so it can be
// tested in isolation.
package sim

import "fmt"

// Time is a point in virtual time, in seconds since the start of the
// simulation. Sub-second resolution is supported (mobility models may
// produce fractional travel times) but all paper scenarios use integral
// seconds.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = Time

// Infinity is a time later than any event of any run.
const Infinity Time = 1e18

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// Before reports whether t occurs strictly before u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t occurs strictly after u.
func (t Time) After(u Time) bool { return t > u }

func (t Time) String() string {
	if t >= Infinity {
		return "+inf"
	}
	return fmt.Sprintf("%.0fs", float64(t))
}
