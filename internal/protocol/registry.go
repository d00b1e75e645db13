package protocol

import (
	"errors"

	"dtnsim/internal/spec"
)

// ErrSpec wraps every protocol-spec parsing failure, so callers can
// distinguish a malformed spec from a simulation error with errors.Is.
var ErrSpec = errors.New("protocol: invalid spec")

// Factory builds fresh instances of one parsed protocol configuration.
// Sweeps call New once per run; instances carry per-run state and are
// never shared.
type Factory struct {
	// Spec is the canonical spec string: Parse(Spec) yields a factory
	// with this same Spec, so specs round-trip.
	Spec string
	// Label is the display name used in figure legends: the protocol's
	// Name().
	Label string
	// New constructs a fresh protocol instance.
	New func() Protocol
}

// factory is the Factory of a canonical spec and its constructor.
func factory(canonical string, newFn func() Protocol) Factory {
	return Factory{Spec: canonical, Label: newFn().Name(), New: newFn}
}

// Default is the registry holding every protocol the paper studies;
// Default.Specs() lists each kind's grammar, defaults and ranges as
// generated from the tables below.
var Default = builtinRegistry()

// Parse resolves a spec ("pq:p=0.8,q=0.5", "ttl:300", "cumimmunity")
// against the Default registry. All failures — unknown name, malformed
// arguments, out-of-range parameters — wrap ErrSpec; Parse never
// panics.
func Parse(s string) (Factory, error) { return Default.Parse(s) }

// BuiltinSpecs returns the canonical spec of every paper protocol in
// the paper's order: the §II families (with P-Q at P=Q=1 standing in
// for pure epidemic as in §V) followed by the §III enhancements.
func BuiltinSpecs() []string {
	return []string{
		"pure", "pq:p=1,q=1", "ttl:300", "ec", "immunity",
		"dynttl", "ecttl", "cumimmunity",
	}
}

func builtinRegistry() *spec.Registry[Factory] {
	r := spec.NewRegistry[Factory]("protocol", ErrSpec)
	// plain registers a protocol without parameters.
	plain := func(name, doc string, newFn func() Protocol) {
		r.Register(name, doc, nil, func(c string, _ spec.Values) (Factory, error) { return factory(c, newFn), nil })
	}
	plain("pure", "pure epidemic (Vahdat & Becker): flood everything, drop-tail when full",
		func() Protocol { return NewPure() })
	// The ranges are the ones NewPQ and NewTTL enforce by panicking,
	// surfaced as errors at the spec boundary.
	r.Register("pq", "(p,q)-epidemic (Matsuda & Takine); anti enables the §II anti-packet channel",
		spec.Table{
			{Name: "p", Default: 1, Max: 1, Always: true, Meta: "P"},
			{Name: "q", Default: 1, Max: 1, Always: true, Meta: "Q"},
			{Name: "anti", Type: spec.Flag},
		},
		func(c string, v spec.Values) (Factory, error) {
			p, q, anti := v.Float("p"), v.Float("q"), v.Flag("anti")
			return factory(c, func() Protocol {
				pr := NewPQ(p, q)
				if anti {
					pr.WithAntiPackets()
				}
				return pr
			}), nil
		})
	r.Register("ttl", "epidemic with a constant TTL in seconds (Harras et al.)",
		spec.Table{{Name: "ttl", Default: 300, Open: true, Max: 1e17, Always: true, Positional: true, Meta: "SECONDS"}},
		func(c string, v spec.Values) (Factory, error) {
			ttl := v.Float("ttl")
			return factory(c, func() Protocol { return NewTTL(ttl) }), nil
		})
	plain("ec", "epidemic with encounter counts (Davis et al.): evict the most-transmitted copy",
		func() Protocol { return NewEC() })
	plain("immunity", "epidemic with per-bundle immunity tables (Mundur et al.)",
		func() Protocol { return NewImmunity() })
	r.Register("dynttl", "dynamic TTL (paper Algorithm 1): mult × the last inter-encounter interval",
		spec.Table{{Name: "mult", Default: NewDynamicTTL().Multiplier, Open: true, Meta: "M"}},
		func(c string, v spec.Values) (Factory, error) {
			mult := v.Float("mult")
			return factory(c, func() Protocol { return &DynamicTTL{Multiplier: mult} }), nil
		})
	r.Register("ecttl", "EC+TTL (paper Algorithm 2): EC-driven ageing past thresh, eviction guard minec",
		spec.Table{
			{Name: "thresh", Type: spec.Int, Default: float64(NewECTTL().ECThreshold), Meta: "N"},
			{Name: "minec", Type: spec.Int, Default: float64(NewECTTL().MinEC), Meta: "N"},
		},
		func(c string, v spec.Values) (Factory, error) {
			thresh, minEC := v.Int("thresh"), v.Int("minec")
			return factory(c, func() Protocol {
				pr := NewECTTL()
				pr.ECThreshold, pr.MinEC = thresh, minEC
				return pr
			}), nil
		})
	plain("cumimmunity", "cumulative immunity (paper §III): one table acknowledges a contiguous bundle prefix",
		func() Protocol { return NewCumulativeImmunity() })
	return r
}
