package mobility

import (
	"math"

	"dtnsim/internal/sim"
)

// CambridgeSpan is the latest timestamp in the paper's trace file
// (§IV: "the maximum recorded time from the trace file is 524,162s").
const CambridgeSpan sim.Time = 524162

// CambridgeNodes is the device count in the paper's trace (§IV:
// "In total, there are 12 devices").
const CambridgeNodes = 12

// SyntheticCambridge generates an encounter trace statistically matching
// the Cambridge/Haggle iMote trace used by the paper: a small student
// population carrying short-range devices for five days, meeting
// irregularly with heavy-tailed inter-contact gaps and highly variable
// contact durations, more active by day than by night.
//
// Each unordered node pair is an independent renewal process:
//
//	gap      ~ boundedPareto(Alpha, MinGap, MaxGap) × diurnal(t)
//	duration ~ logNormal(ln(MedianDur), DurSigma), clamped to
//	           [MinDur, MaxDur]
//
// All fields have sensible defaults (zero value works after Defaults);
// the generator is deterministic for a given Seed.
type SyntheticCambridge struct {
	Nodes      int
	Span       sim.Time
	Seed       uint64
	Alpha      float64 // Pareto shape for inter-contact gaps
	MinGap     float64 // seconds
	MaxGap     float64 // seconds
	MedianDur  float64 // seconds, median contact duration
	DurSigma   float64 // log-normal sigma of durations
	MinDur     float64 // seconds
	MaxDur     float64 // seconds
	NightQuiet float64 // gap multiplier during 00:00–08:00
	// PairActivity skews how social each pair is: pair rates are scaled
	// by a factor drawn uniformly from [1-PairActivity, 1+PairActivity].
	// Real sighting traces are strongly heterogeneous across pairs.
	PairActivity float64
}

// Defaults fills unset (zero) fields with the calibrated values from
// DESIGN.md §3.1. Returns the receiver for chaining.
func (g SyntheticCambridge) Defaults() SyntheticCambridge {
	if g.Nodes == 0 {
		g.Nodes = CambridgeNodes
	}
	if g.Span == 0 {
		g.Span = CambridgeSpan
	}
	if g.Alpha == 0 {
		g.Alpha = 1.3
	}
	if g.MinGap == 0 {
		g.MinGap = 15000
	}
	if g.MaxGap == 0 {
		g.MaxGap = 130000
	}
	if g.MedianDur == 0 {
		g.MedianDur = 250
	}
	if g.DurSigma == 0 {
		g.DurSigma = 0.8
	}
	if g.MinDur == 0 {
		g.MinDur = 60
	}
	if g.MaxDur == 0 {
		g.MaxDur = 2500
	}
	if g.NightQuiet == 0 {
		g.NightQuiet = 3.0
	}
	if g.PairActivity == 0 {
		g.PairActivity = 0.9
	}
	return g
}

const daySeconds = 86400

// diurnalFactor stretches gaps that start at night: students meet far
// less between midnight and 08:00.
func (g SyntheticCambridge) diurnalFactor(t float64) float64 {
	tod := math.Mod(t, daySeconds)
	if tod < 8*3600 {
		return g.NightQuiet
	}
	return 1.0
}
