package mobility

import (
	"errors"

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

// Default is the registry holding every mobility source the paper uses;
// Default.Specs() lists each kind's grammar as generated from the
// tables below. A zero or absent model parameter means the model's own
// default.
var Default = builtinRegistry()

// Parse resolves a spec ("cambridge:seed=42", "rwp:nodes=40",
// "trace:PATH") against the Default registry. All failures wrap
// ErrSpec; Parse never panics and never touches the filesystem (trace
// files are opened by Stream).
func Parse(s string) (Source, error) { return Default.Parse(s) }

// BuiltinSpecs returns one canonical spec per built-in source.
func BuiltinSpecs() []string {
	return []string{"cambridge", "subscriber", "rwp", "interval:max=400"}
}

// MaxNodes bounds the population of every generated model but
// Cambridge, and of a trace file: twice the scale axis's 1M-node cell.
// Past it a spec is not a run anyone waits for but an allocation that
// kills the process — or the daemon that compiled the job.
const MaxNodes = 1 << 21

// MaxCambridgeNodes bounds the synthetic Cambridge population: its
// state is one renewal process per pair, O(nodes²) — about 175 MB at
// 1000 nodes.
const MaxCambridgeNodes = 2048

// Shared rows. A pinned seed makes Stream ignore the caller's seed,
// fixing the schedule across sweep runs. A population is 0 (the
// model's default) or 2 and up: one node has no one to meet, and would
// otherwise parse, queue and fail only when its stream opened.
var (
	seedRow  = spec.Param{Name: "seed", Type: spec.Uint, Meta: "N"}
	nodesRow = spec.Param{Name: "nodes", Type: spec.Int, Meta: "N", Min: 2, Max: MaxNodes}
	areaRow  = spec.Param{Name: "area", Meta: "M"}
	spanRow  = spec.Param{Name: "span", Meta: "S"}
)

// model is a generated model's configuration, defaulted. validate
// refuses what its Stream cannot run, so the registry refuses it at
// parse instead of queueing a run that can only fail; Stream validates
// again for callers that build a model by hand.
type model interface {
	validate() error
	Stream() (contact.Source, error)
}

func builtinRegistry() *spec.Registry[Source] {
	r := spec.NewRegistry[Source]("mobility", ErrSpec)
	// generator registers a seeded model: perRun says whether an
	// unpinned spec is regenerated for every sweep run.
	generator := func(kind, doc string, t spec.Table, perRun bool, config func(v spec.Values, seed uint64) model) {
		r.Register(kind, doc, t, func(canonical string, v spec.Values) (Source, error) {
			seed, pinned := v.Uint("seed")
			if err := config(v, seed).validate(); err != nil {
				return Source{}, err
			}
			return Source{
				Spec: canonical, Kind: kind, PerRun: perRun && !pinned,
				Stream: func(runSeed uint64) (contact.Source, error) {
					if pinned {
						runSeed = seed
					}
					return config(v, runSeed).Stream()
				},
			}, nil
		})
	}
	generator("cambridge", "synthetic Cambridge/Haggle iMote encounter trace (fixed across sweep runs, like the real file)",
		spec.Table{seedRow, {Name: "nodes", Type: spec.Int, Meta: "N", Min: 2, Max: MaxCambridgeNodes}, spanRow}, false,
		func(v spec.Values, seed uint64) model {
			return SyntheticCambridge{Seed: seed, Nodes: v.Int("nodes"), Span: sim.Time(v.Float("span"))}.Defaults()
		})
	generator("subscriber", "the paper's modified subscriber-point RWP (regenerated per run)",
		spec.Table{seedRow, nodesRow, {Name: "points", Type: spec.Int, Meta: "N"}, areaRow, spanRow}, true,
		func(v spec.Values, seed uint64) model {
			return SubscriberPointRWP{
				Seed: seed, Nodes: v.Int("nodes"), Points: v.Int("points"),
				AreaSide: v.Float("area"), Span: sim.Time(v.Float("span")),
			}.Defaults()
		})
	generator("rwp", "textbook random waypoint with range detection (regenerated per run)",
		spec.Table{seedRow, nodesRow, areaRow, spanRow, {Name: "range", Meta: "M"}, {Name: "dt", Meta: "S"}}, true,
		func(v spec.Values, seed uint64) model {
			return ClassicRWP{
				Seed: seed, Nodes: v.Int("nodes"), AreaSide: v.Float("area"),
				Span: sim.Time(v.Float("span")), Range: v.Float("range"), SampleDT: v.Float("dt"),
			}.Defaults()
		})
	generator("interval", "the Fig. 14 bounded inter-encounter-interval scenario (regenerated per run)",
		spec.Table{{Name: "max", Meta: "S"}, {Name: "min", Meta: "S"}, nodesRow, {Name: "encounters", Type: spec.Int, Meta: "N"}, seedRow}, true,
		func(v spec.Values, seed uint64) model {
			return ControlledInterval{
				Seed: seed, MaxInterval: v.Float("max"), MinInterval: v.Float("min"),
				Nodes: v.Int("nodes"), Encounters: v.Int("encounters"),
			}.Defaults()
		})
	// The path is the whole argument string, so it may contain colons,
	// commas and equals signs.
	r.Register("trace", "encounter-trace file (\"nodeA nodeB start end\" lines, CRAWDAD Haggle style)",
		spec.Table{{Name: "path", Type: spec.Raw, Positional: true, Meta: "PATH"}},
		func(canonical string, v spec.Values) (Source, error) {
			path := v.Raw("path")
			return Source{
				Spec: canonical, Kind: "trace",
				Stream: func(uint64) (contact.Source, error) { return OpenTraceSource(path) },
			}, nil
		})
	return r
}
