package experiment

import (
	"fmt"
	"math"
	"strconv"
)

// The standard scenarios and protocol factories are thin wrappers over
// the mobility and protocol registries: each one resolves a canonical
// spec string, so every sweep they appear in is expressible as data
// (see SweepSpec in the public package). Display names are pinned to
// the paper's legends and to the pre-registry report labels.

// TraceScenario is the paper's trace-based setup: the (synthetic)
// Cambridge iMote encounter trace, fixed across runs like a real trace
// file, 12 nodes, 100 s/bundle, 10-bundle buffers.
func TraceScenario() Scenario {
	sc := mustScenario("cambridge")
	sc.Name = "trace"
	return sc
}

// RWPScenario is the paper's modified Random-WayPoint setup: subscriber
// points in 1 km², 600,000 s horizon, regenerated per run.
func RWPScenario() Scenario {
	sc := mustScenario("subscriber")
	sc.Name = "rwp"
	return sc
}

// IntervalScenario is the Fig. 14 controlled-interval setup: 20 nodes,
// at most 20 encounters each, inter-encounter gap bounded by maxInterval
// seconds, regenerated per run. The registry preset gives it a faster
// link than the trace scenario (25 s/bundle): contacts stay short
// relative to the 300 s TTL while still carrying 4–12 bundles, which is
// what gives Fig. 14 its capacity profile.
func IntervalScenario(maxInterval float64) Scenario {
	sc := mustScenario("interval:max=" + strconv.FormatFloat(maxInterval, 'g', -1, 64))
	sc.Name = "interval"
	return sc
}

// ScaleMobility is the population axis's default nodes→spec mapping:
// classic RWP at constant density (25 nodes/km², 100 m radio range),
// area side scaled with √nodes, a 50,000 s window sampled every 25 s.
// Density constant means per-node contact opportunity is roughly
// constant while the source→destination distance grows with the area —
// the regime where delivery ratio and delay degrade with N.
func ScaleMobility(nodes int) string {
	return ScaleMobilitySpan(nodes, 50000)
}

// ScaleMobilitySpan is ScaleMobility with an explicit simulated window:
// the same constant-density geometry over span seconds. Shorter spans
// keep huge populations (the 100k-node cell) and CI smoke runs inside a
// wall-clock budget. The span is spelled exactly, so a fractional one
// never rounds to 0, which the rwp model reads as its default window.
func ScaleMobilitySpan(nodes int, span float64) string {
	side := 1000 * math.Sqrt(float64(nodes)/25)
	return fmt.Sprintf("rwp:nodes=%d,area=%.0f,span=%s,range=100,dt=25",
		nodes, side, strconv.FormatFloat(span, 'f', -1, 64))
}

// Protocol factories matching the paper's configurations.

// PQ11 is P-Q epidemic with P=Q=1, the paper's best-delay configuration.
func PQ11() ProtocolFactory {
	return mustFactory("pq:p=1,q=1", "P-Q epidemic")
}

// PQ11Anti is P-Q epidemic with P=Q=1 and the §II anti-packet channel,
// the variant whose delay the paper reports as matching immunity's.
func PQ11Anti() ProtocolFactory {
	return mustFactory("pq:p=1,q=1,anti", "P-Q epidemic (anti-packets)")
}

// PQ returns a P-Q factory for arbitrary probabilities (the §IV sweep
// uses 0.1, 0.5 and 1). The label is the protocol's display name.
func PQ(p, q float64) ProtocolFactory {
	return mustFactory(fmt.Sprintf("pq:p=%g,q=%g", p, q), "")
}

// TTL300 is epidemic with the constant TTL of 300 s used in §V.
func TTL300() ProtocolFactory {
	return mustFactory("ttl:300", "Epidemic with TTL")
}

// TTLConst returns epidemic with an arbitrary constant TTL (the §IV
// sweep uses 50, 100, 150 and 200).
func TTLConst(ttl float64) ProtocolFactory {
	return mustFactory("ttl:"+strconv.FormatFloat(ttl, 'g', -1, 64), "")
}

// DynTTL is the paper's dynamic-TTL enhancement.
func DynTTL() ProtocolFactory {
	return mustFactory("dynttl", "Epidemic with dynamic TTL")
}

// EC is epidemic with encounter count.
func EC() ProtocolFactory {
	return mustFactory("ec", "Epidemic with EC")
}

// ECTTL is the paper's EC+TTL enhancement.
func ECTTL() ProtocolFactory {
	return mustFactory("ecttl", "Epidemic with EC+TTL")
}

// Immunity is epidemic with per-bundle immunity tables.
func Immunity() ProtocolFactory {
	return mustFactory("immunity", "Epidemic with immunity")
}

// CumImmunity is the paper's cumulative-immunity enhancement.
func CumImmunity() ProtocolFactory {
	return mustFactory("cumimmunity", "Epidemic with cumulative immunity")
}

// Pure is pure epidemic (Vahdat & Becker), the baseline all variants
// derive from.
func Pure() ProtocolFactory {
	return mustFactory("pure", "Pure epidemic")
}
