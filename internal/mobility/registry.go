package mobility

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
	"dtnsim/internal/spec"
)

// ErrSpec wraps every mobility-spec parsing failure.
var ErrSpec = errors.New("mobility: invalid spec")

// Source is one parsed mobility specification: a named, seedable
// contact-stream generator. It is the data form of a mobility model —
// scenario files, sweeps and the CLI all reduce to a Source.
type Source struct {
	// Spec is the canonical spec string: Parse(Spec) yields a Source
	// with this same Spec, so specs round-trip.
	Spec string
	// Kind is the registry key the spec resolved to ("cambridge", …).
	Kind string
	// PerRun reports whether sweep harnesses should stream every run
	// from its own seed (synthetic waypoint models) or every run from
	// the same one (trace files, seed-pinned generators).
	PerRun bool
	// Stream builds a pull-based contact source in O(nodes) working
	// memory: the one way a Source produces mobility (drain it with
	// contact.Materialize for the full Schedule). The seed is the run's
	// seed unless the spec pinned one with seed=N. A source is
	// single-use: call Stream once per run. Must be safe for concurrent
	// use.
	Stream func(seed uint64) (contact.Source, error)
}

// SpecInfo documents one registered spec for listings (-list).
type SpecInfo struct {
	Name  string
	Usage string
}

// Parser turns the argument part of "name:args" into a Source.
type Parser func(args string) (Source, error)

// Registry maps spec names to mobility parsers, mirroring
// protocol.Registry: new generators register under a string key and
// become usable everywhere specs are accepted without touching callers.
type Registry struct {
	names   []string
	entries map[string]entry
}

type entry struct {
	usage string
	parse Parser
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]entry{}}
}

// Register adds a named parser; it panics on an empty or duplicate name
// (registration is init-time, a collision is a programming error).
func (r *Registry) Register(name, usage string, p Parser) {
	if name == "" || p == nil {
		panic("mobility: Register requires a name and a parser")
	}
	if _, dup := r.entries[name]; dup {
		panic(fmt.Sprintf("mobility: %q registered twice", name))
	}
	r.names = append(r.names, name)
	r.entries[name] = entry{usage: usage, parse: p}
}

// Names returns the registered spec names in registration order.
func (r *Registry) Names() []string {
	return append([]string(nil), r.names...)
}

// Specs returns name and usage for every registered parser.
func (r *Registry) Specs() []SpecInfo {
	out := make([]SpecInfo, 0, len(r.names))
	for _, n := range r.names {
		out = append(out, SpecInfo{Name: n, Usage: r.entries[n].usage})
	}
	return out
}

// Parse resolves a spec string ("cambridge:seed=42", "subscriber",
// "rwp:nodes=40", "interval:max=2000", "trace:PATH") to a Source. All
// failures wrap ErrSpec; Parse never panics and never touches the
// filesystem (trace files are opened by Stream).
func (r *Registry) Parse(s string) (Source, error) {
	name, args := spec.Split(s)
	if name == "" {
		return Source{}, fmt.Errorf("%w: empty spec", ErrSpec)
	}
	e, ok := r.entries[name]
	if !ok {
		return Source{}, fmt.Errorf("%w: unknown mobility %q (have %s)",
			ErrSpec, name, strings.Join(r.names, ", "))
	}
	src, err := e.parse(args)
	if err != nil {
		if errors.Is(err, ErrSpec) {
			return Source{}, err
		}
		return Source{}, fmt.Errorf("%w: %s: %v", ErrSpec, name, err)
	}
	src.Kind = name
	return src, nil
}

// Default is the registry holding every mobility source the paper uses:
//
//	cambridge[:seed=N,nodes=N,span=S]    synthetic Cambridge/Haggle trace
//	subscriber[:seed=N,nodes=N,...]      the paper's modified (subscriber-point) RWP
//	rwp[:seed=N,nodes=N,...]             textbook random waypoint
//	interval[:max=S,min=S,...]           the Fig. 14 controlled-interval scenario
//	trace:PATH                           an encounter-trace file on disk
var Default = builtinRegistry()

// Parse resolves a spec against the Default registry.
func Parse(s string) (Source, error) { return Default.Parse(s) }

// BuiltinSpecs returns one canonical spec per built-in source.
func BuiltinSpecs() []string {
	return []string{"cambridge", "subscriber", "rwp", "interval:max=400"}
}

func builtinRegistry() *Registry {
	r := NewRegistry()
	r.Register("cambridge",
		"cambridge[:seed=N,nodes=N,span=S] — synthetic Cambridge/Haggle iMote encounter trace (fixed across sweep runs)",
		parseCambridge)
	r.Register("subscriber",
		"subscriber[:seed=N,nodes=N,points=N,area=M,span=S] — the paper's modified subscriber-point RWP (regenerated per run)",
		parseSubscriber)
	r.Register("rwp",
		"rwp[:seed=N,nodes=N,area=M,span=S,range=M,dt=S] — textbook random waypoint with range detection (regenerated per run)",
		parseClassic)
	r.Register("interval",
		"interval[:max=S,min=S,nodes=N,encounters=N,seed=N] — the Fig. 14 bounded inter-encounter-interval scenario (regenerated per run)",
		parseInterval)
	r.Register("trace",
		"trace:PATH — encounter-trace file (\"nodeA nodeB start end\" lines, CRAWDAD Haggle style)",
		parseTraceFile)
	return r
}

// seedParam reads the optional seed pin. A pinned seed makes Stream
// ignore the caller's seed, fixing the schedule across sweep runs.
func seedParam(ps *spec.Params) (pinned bool, seed uint64, err error) {
	pinned = ps.Has("seed")
	seed, err = ps.Uint("seed", 0)
	return pinned, seed, err
}

func fmtUint(v uint64) string   { return strconv.FormatUint(v, 10) }
func fmtInt(v int) string       { return strconv.Itoa(v) }
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// canonical renders "name" or "name:pairs", omitting empty values.
func canonical(name string, pairs ...[2]string) string {
	args := spec.Canonical(pairs...)
	if args == "" {
		return name
	}
	return name + ":" + args
}

func parseCambridge(args string) (Source, error) {
	ps, err := spec.Parse(args)
	if err != nil {
		return Source{}, err
	}
	pinned, seed, err := seedParam(ps)
	if err != nil {
		return Source{}, err
	}
	nodes, err := ps.Int("nodes", 0)
	if err != nil {
		return Source{}, err
	}
	span, err := ps.Float("span", 0)
	if err != nil {
		return Source{}, err
	}
	if err := ps.Unknown(); err != nil {
		return Source{}, err
	}
	if nodes < 0 || span < 0 {
		return Source{}, fmt.Errorf("nodes and span must be non-negative")
	}
	var pairs [][2]string
	if pinned {
		pairs = append(pairs, [2]string{"seed", fmtUint(seed)})
	}
	if nodes != 0 {
		pairs = append(pairs, [2]string{"nodes", fmtInt(nodes)})
	}
	if span != 0 {
		pairs = append(pairs, [2]string{"span", fmtFloat(span)})
	}
	return Source{
		Spec:   canonical("cambridge", pairs...),
		PerRun: false, // a trace is fixed across runs, like the real file
		Stream: func(runSeed uint64) (contact.Source, error) {
			if pinned {
				runSeed = seed
			}
			return SyntheticCambridge{Seed: runSeed, Nodes: nodes, Span: sim.Time(span)}.Stream()
		},
	}, nil
}

func parseSubscriber(args string) (Source, error) {
	ps, err := spec.Parse(args)
	if err != nil {
		return Source{}, err
	}
	pinned, seed, err := seedParam(ps)
	if err != nil {
		return Source{}, err
	}
	nodes, err := ps.Int("nodes", 0)
	if err != nil {
		return Source{}, err
	}
	points, err := ps.Int("points", 0)
	if err != nil {
		return Source{}, err
	}
	area, err := ps.Float("area", 0)
	if err != nil {
		return Source{}, err
	}
	span, err := ps.Float("span", 0)
	if err != nil {
		return Source{}, err
	}
	if err := ps.Unknown(); err != nil {
		return Source{}, err
	}
	if nodes < 0 || points < 0 || area < 0 || span < 0 {
		return Source{}, fmt.Errorf("parameters must be non-negative")
	}
	var pairs [][2]string
	if pinned {
		pairs = append(pairs, [2]string{"seed", fmtUint(seed)})
	}
	if nodes != 0 {
		pairs = append(pairs, [2]string{"nodes", fmtInt(nodes)})
	}
	if points != 0 {
		pairs = append(pairs, [2]string{"points", fmtInt(points)})
	}
	if area != 0 {
		pairs = append(pairs, [2]string{"area", fmtFloat(area)})
	}
	if span != 0 {
		pairs = append(pairs, [2]string{"span", fmtFloat(span)})
	}
	return Source{
		Spec:   canonical("subscriber", pairs...),
		PerRun: !pinned,
		Stream: func(runSeed uint64) (contact.Source, error) {
			if pinned {
				runSeed = seed
			}
			return SubscriberPointRWP{
				Seed: runSeed, Nodes: nodes, Points: points,
				AreaSide: area, Span: sim.Time(span),
			}.Stream()
		},
	}, nil
}

func parseClassic(args string) (Source, error) {
	ps, err := spec.Parse(args)
	if err != nil {
		return Source{}, err
	}
	pinned, seed, err := seedParam(ps)
	if err != nil {
		return Source{}, err
	}
	nodes, err := ps.Int("nodes", 0)
	if err != nil {
		return Source{}, err
	}
	area, err := ps.Float("area", 0)
	if err != nil {
		return Source{}, err
	}
	span, err := ps.Float("span", 0)
	if err != nil {
		return Source{}, err
	}
	rng, err := ps.Float("range", 0)
	if err != nil {
		return Source{}, err
	}
	dt, err := ps.Float("dt", 0)
	if err != nil {
		return Source{}, err
	}
	if err := ps.Unknown(); err != nil {
		return Source{}, err
	}
	if nodes < 0 || area < 0 || span < 0 || rng < 0 || dt < 0 {
		return Source{}, fmt.Errorf("parameters must be non-negative")
	}
	var pairs [][2]string
	if pinned {
		pairs = append(pairs, [2]string{"seed", fmtUint(seed)})
	}
	if nodes != 0 {
		pairs = append(pairs, [2]string{"nodes", fmtInt(nodes)})
	}
	if area != 0 {
		pairs = append(pairs, [2]string{"area", fmtFloat(area)})
	}
	if span != 0 {
		pairs = append(pairs, [2]string{"span", fmtFloat(span)})
	}
	if rng != 0 {
		pairs = append(pairs, [2]string{"range", fmtFloat(rng)})
	}
	if dt != 0 {
		pairs = append(pairs, [2]string{"dt", fmtFloat(dt)})
	}
	return Source{
		Spec:   canonical("rwp", pairs...),
		PerRun: !pinned,
		Stream: func(runSeed uint64) (contact.Source, error) {
			if pinned {
				runSeed = seed
			}
			return ClassicRWP{
				Seed: runSeed, Nodes: nodes, AreaSide: area,
				Span: sim.Time(span), Range: rng, SampleDT: dt,
			}.Stream()
		},
	}, nil
}

func parseInterval(args string) (Source, error) {
	ps, err := spec.Parse(args)
	if err != nil {
		return Source{}, err
	}
	pinned, seed, err := seedParam(ps)
	if err != nil {
		return Source{}, err
	}
	maxI, err := ps.Float("max", 0)
	if err != nil {
		return Source{}, err
	}
	minI, err := ps.Float("min", 0)
	if err != nil {
		return Source{}, err
	}
	nodes, err := ps.Int("nodes", 0)
	if err != nil {
		return Source{}, err
	}
	enc, err := ps.Int("encounters", 0)
	if err != nil {
		return Source{}, err
	}
	if err := ps.Unknown(); err != nil {
		return Source{}, err
	}
	if maxI < 0 || minI < 0 || nodes < 0 || enc < 0 {
		return Source{}, fmt.Errorf("parameters must be non-negative")
	}
	var pairs [][2]string
	if maxI != 0 {
		pairs = append(pairs, [2]string{"max", fmtFloat(maxI)})
	}
	if minI != 0 {
		pairs = append(pairs, [2]string{"min", fmtFloat(minI)})
	}
	if nodes != 0 {
		pairs = append(pairs, [2]string{"nodes", fmtInt(nodes)})
	}
	if enc != 0 {
		pairs = append(pairs, [2]string{"encounters", fmtInt(enc)})
	}
	if pinned {
		pairs = append(pairs, [2]string{"seed", fmtUint(seed)})
	}
	return Source{
		Spec:   canonical("interval", pairs...),
		PerRun: !pinned,
		Stream: func(runSeed uint64) (contact.Source, error) {
			if pinned {
				runSeed = seed
			}
			return ControlledInterval{
				Seed: runSeed, MaxInterval: maxI, MinInterval: minI,
				Nodes: nodes, Encounters: enc,
			}.Stream()
		},
	}, nil
}

// parseTraceFile takes the whole argument string as the file path, so
// paths may contain colons, commas, and equals signs.
func parseTraceFile(args string) (Source, error) {
	if args == "" {
		return Source{}, fmt.Errorf("needs a file path (trace:PATH)")
	}
	path := args
	return Source{
		Spec:   "trace:" + path,
		PerRun: false,
		Stream: func(uint64) (contact.Source, error) {
			return OpenTraceSource(path)
		},
	}, nil
}
