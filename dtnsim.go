// Package dtnsim is a discrete-event Delay-Tolerant-Network simulator
// reproducing Feng & Chin, "A Unified Study of Epidemic Routing
// Protocols and their Enhancements" (IEEE IPDPSW 2012).
//
// It provides, under one unified framework (§IV of the paper):
//
//   - every epidemic routing protocol the paper studies — pure epidemic,
//     P-Q epidemic, epidemic with constant TTL, with encounter count
//     (EC), and with immunity tables — plus the paper's three
//     enhancements: dynamic TTL, EC+TTL, and cumulative immunity;
//   - the paper's mobility substrates: a Cambridge/Haggle-style
//     encounter trace (synthetic generator plus a parser for real trace
//     files), the modified subscriber-point Random-WayPoint model,
//     classic RWP, and the Fig. 14 controlled-interval scenario;
//   - the experiment harness regenerating every figure and table in the
//     paper's evaluation (§V), with CSV and ASCII-chart output.
//
// # Quick start
//
//	schedule, err := dtnsim.CambridgeTrace(42)
//	if err != nil { ... }
//	result, err := dtnsim.Run(dtnsim.Config{
//		Schedule: schedule,
//		Protocol: dtnsim.DynamicTTL(),
//		Flows:    []dtnsim.Flow{{Src: 0, Dst: 7, Count: 25}},
//	})
//	fmt.Printf("delivered %d/%d in %v\n",
//		result.Delivered, result.Generated, result.Makespan)
//
// # Scenarios as data
//
// Every run is also definable declaratively: a Scenario names its
// mobility model and protocol by registry spec strings ("cambridge:seed=42",
// "pq:p=0.8,q=0.5"), round-trips through JSON, and compiles to the same
// Config — bit-identical results — via Compile/RunScenario. Sweeps
// serialize the same way through SweepSpec. The protocol and mobility
// constructors below are thin wrappers over the same registries, so the
// two styles never diverge.
//
//	sc, err := dtnsim.ParseScenario(jsonBytes)
//	if err != nil { ... }
//	result, err := dtnsim.RunScenario(sc)
//
// See DESIGN.md for the architecture and modelling decisions (the
// Scenario/registry/Observer design is §4), and EXPERIMENTS.md for the
// paper-versus-measured record of every figure.
package dtnsim

import (
	"io"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/mobility"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// Core simulation types, re-exported from the engine.
type (
	// Config describes one simulation run; see core.Config.
	Config = core.Config
	// Flow is one source→destination bundle stream.
	Flow = core.Flow
	// Result summarizes one run.
	Result = core.Result
	// Protocol is the routing-policy interface all variants implement.
	Protocol = protocol.Protocol
	// Schedule is a validated, time-ordered set of node contacts.
	Schedule = contact.Schedule
	// Contact is one encounter window between two nodes.
	Contact = contact.Contact
	// NodeID identifies a node (dense integers from zero).
	NodeID = contact.NodeID
	// BundleID identifies a bundle globally (origin node + sequence
	// number); observers receive it in every event.
	BundleID = bundle.ID
	// Time is virtual time in seconds.
	Time = sim.Time
	// ContactStats summarizes a schedule's encounter structure.
	ContactStats = contact.Stats
	// ContactSource is a pull-based contact stream: the engine consumes
	// one contact at a time, so contact-plan memory is the source's
	// working set (O(nodes) for every built-in mobility model) instead
	// of O(#contacts). Set it via Config.Source; a materialized
	// Schedule remains the back-compat alternative. All mobility
	// generators provide a Stream method returning one.
	ContactSource = contact.Source
)

// Engine defaults from the paper's methodology (§IV).
const (
	// DefaultBufferCap is the per-node buffer size in bundles.
	DefaultBufferCap = core.DefaultBufferCap
	// DefaultTxTime is the per-bundle transmission time in seconds.
	DefaultTxTime = core.DefaultTxTime
)

// Run executes one simulation run.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// AnalyzeSchedule computes encounter statistics (contact counts,
// durations, inter-contact intervals) for a schedule.
func AnalyzeSchedule(s *Schedule) ContactStats { return contact.Analyze(s) }

// AnalyzeContactSource computes the same statistics from a streaming
// source in one O(nodes + pairs)-memory pass, consuming it.
func AnalyzeContactSource(src ContactSource) (ContactStats, error) {
	return contact.AnalyzeSource(src)
}

// --- Protocols -------------------------------------------------------------

// The constructors below are thin wrappers over the protocol registry:
// each resolves the equivalent spec string, so Go callers and scenario
// files construct identical instances.

// mustProtocol resolves a built-in spec; failure is a programming error.
func mustProtocol(spec string) Protocol {
	f, err := protocol.Parse(spec)
	if err != nil {
		panic(err)
	}
	return f.New()
}

// Pure returns pure epidemic routing (Vahdat & Becker): flood everything,
// drop-tail when full. Spec: "pure".
func Pure() Protocol { return mustProtocol("pure") }

// PQ returns (p,q)-epidemic routing (Matsuda & Takine): sources forward
// with probability p, relays with probability q. It panics unless both
// lie in [0,1]; use ParseProtocolSpec("pq:p=…,q=…") for an
// error-returning boundary. Spec: "pq:p=P,q=Q".
func PQ(p, q float64) Protocol { return protocol.NewPQ(p, q) }

// PQWithAntiPackets returns P-Q epidemic with the §II anti-packet purge
// channel, the variant whose delay the paper reports as identical to
// immunity's at P=Q=1.
func PQWithAntiPackets(p, q float64) Protocol { return protocol.NewPQ(p, q).WithAntiPackets() }

// TTL returns epidemic routing with a constant time-to-live in seconds
// (Harras et al.); the paper's comparative experiments use 300. It
// panics on a non-positive TTL; use ParseProtocolSpec("ttl:…") for an
// error-returning boundary. Spec: "ttl:SECONDS".
func TTL(seconds float64) Protocol { return protocol.NewTTL(seconds) }

// DynamicTTL returns the paper's first enhancement (Algorithm 1): TTL
// set to twice the storing node's last inter-encounter interval.
// Spec: "dynttl".
func DynamicTTL() Protocol { return mustProtocol("dynttl") }

// EC returns epidemic routing with encounter counts (Davis et al.):
// buffer-full eviction of the most-transmitted copy. Spec: "ec".
func EC() Protocol { return mustProtocol("ec") }

// ECTTL returns the paper's second enhancement (Algorithm 2): EC with a
// minimum-EC eviction guard and EC-driven TTL ageing. Spec: "ecttl".
func ECTTL() Protocol { return mustProtocol("ecttl") }

// Immunity returns epidemic routing with per-bundle immunity tables
// (Mundur et al.). Spec: "immunity".
func Immunity() Protocol { return mustProtocol("immunity") }

// CumulativeImmunity returns the paper's third enhancement: the
// destination acknowledges the highest contiguous bundle prefix with a
// single table. Spec: "cumimmunity".
func CumulativeImmunity() Protocol { return mustProtocol("cumimmunity") }

// Protocols returns one instance of every protocol the paper evaluates,
// in the paper's order: the four §II families (P-Q at P=Q=1 standing in
// for pure epidemic as in §V) followed by the three §III enhancements.
// The instances are built from the registry's canonical specs (see
// BuiltinProtocolSpecs).
func Protocols() []Protocol {
	specs := protocol.BuiltinSpecs()
	out := make([]Protocol, len(specs))
	for i, s := range specs {
		out[i] = mustProtocol(s)
	}
	return out
}

// --- Mobility ---------------------------------------------------------------

// CambridgeTrace returns the synthetic Cambridge/Haggle iMote encounter
// trace used for all trace-based experiments, materialized: 12 nodes
// over 524,162 virtual seconds with heavy-tailed inter-contact gaps (see
// DESIGN.md §3 for the substitution rationale). It is the "cambridge"
// spec drained into a Schedule; runs that need no random access pass
// SyntheticCambridge{Seed: seed}.Stream() to Config.Source instead.
func CambridgeTrace(seed uint64) (*Schedule, error) {
	return Scenario{Mobility: "cambridge", Seed: seed}.Materialize()
}

// SubscriberRWP returns the paper's modified Random-WayPoint mobility,
// materialized from the "subscriber" spec: nodes hopping between
// subscriber points in a 1 km² area over 600,000 virtual seconds,
// contacts capped at 500 s.
func SubscriberRWP(seed uint64) (*Schedule, error) {
	return Scenario{Mobility: "subscriber", Seed: seed}.Materialize()
}

// The mobility models with all knobs exposed. Each has exactly one
// implementation, its Stream method, which returns an O(nodes)
// ContactSource; MaterializeSource drains one into a Schedule for
// callers that need random access (WriteTrace, AnalyzeSchedule).
type (
	// SyntheticCambridge generates Cambridge-like encounter traces.
	SyntheticCambridge = mobility.SyntheticCambridge
	// SubscriberPointRWP is the paper's modified RWP model.
	SubscriberPointRWP = mobility.SubscriberPointRWP
	// ClassicRWP is textbook random waypoint with range detection.
	ClassicRWP = mobility.ClassicRWP
	// ControlledInterval is the Fig. 14 bounded-interval scenario.
	ControlledInterval = mobility.ControlledInterval
)

// ParseTrace reads an encounter trace ("nodeA nodeB start end" lines,
// CRAWDAD Haggle-style); see mobility.ParseTrace for the format.
func ParseTrace(r io.Reader) (*Schedule, error) { return mobility.ParseTrace(r) }

// WriteTrace writes a schedule in the format ParseTrace reads.
func WriteTrace(w io.Writer, s *Schedule) error { return mobility.WriteTrace(w, s) }

// OpenTraceSource streams a trace file from disk as a ContactSource in
// O(1) memory (two sequential passes; see mobility.OpenTraceSource).
func OpenTraceSource(path string) (ContactSource, error) { return mobility.OpenTraceSource(path) }

// MaterializeSource drains a ContactSource into a validated Schedule,
// for callers that need random access (analysis, trace export). Runs
// never need it: pass the source to Config.Source instead.
func MaterializeSource(src ContactSource) (*Schedule, error) { return contact.Materialize(src) }
