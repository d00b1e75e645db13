// Package sim is a deliberately broken fixture: its module path claims
// dtnsim/internal/sim, inside maporder's scope of every internal
// package but internal/server, and minTime ranges over a map with a
// body that is not collect-then-sort. The dtnlint smoke test asserts
// this fails the gate.
package sim

// minTime returns the earliest time and the name of an event at that
// time; on a tie, which name wins follows the map's randomized order.
func minTime(events map[string]float64) (string, float64) {
	name, best := "", 0.0
	for k, t := range events {
		if name == "" || t <= best {
			name, best = k, t
		}
	}
	return name, best
}
