package sim

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random source with the distribution helpers the
// mobility models and workload generators need. Every stream is derived
// from an explicit 64-bit seed; the same seed always yields the same
// sequence, which is the backbone of run reproducibility.
//
// The generator state is held by value, so an RNG is one plain value:
// a slice of them (one per node or pair) is one allocation, and
// DeriveInto initialises an element in place. Copying an RNG forks its
// state; keep one copy in use.
type RNG struct {
	pcg rand.PCG
	// reseedable marks streams built with NewReseedable, the only ones
	// Reseed may repoint.
	reseedable bool
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{pcg: *rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)}
}

// r is the distribution front end over the state. rand.Rand holds
// nothing but its source, so building one per draw is free (it stays on
// the stack) and every draw is the one a long-lived rand.Rand would make.
func (g *RNG) r() *rand.Rand { return rand.New(&g.pcg) }

// NewReseedable returns a stream whose state can be repointed with
// Reseed. The engine keeps one per executor and reseeds it at each
// encounter from EncounterSeed, so per-encounter draw sequences cost
// zero allocations and are independent of which executor (sequential
// engine, any shard worker) runs the encounter.
func NewReseedable() *RNG { return &RNG{reseedable: true} }

// Reseed repoints a reseedable stream at the state (s1, s2). It panics
// on streams not built with NewReseedable — silently reseeding a shared
// model stream would corrupt unrelated consumers.
func (g *RNG) Reseed(s1, s2 uint64) {
	if !g.reseedable {
		panic("sim: Reseed on a non-reseedable RNG")
	}
	g.pcg.Seed(s1, s2)
}

// splitmix64 is the SplitMix64 finalizer: a bijective 64-bit mix with
// full avalanche, the standard way to expand one seed into decorrelated
// streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// EncounterSeed derives the canonical PCG state for the random draws of
// one encounter: the contact between nodes a and b starting at start,
// under the run seed. The state is a pure function of those four values
// — no draw order, no executor identity — which is what lets a sharded
// engine replay any encounter on any worker and still produce the draw
// sequence the sequential engine produces (DESIGN.md §12).
func EncounterSeed(runSeed, a, b uint64, start Time) (uint64, uint64) {
	h := splitmix64(runSeed ^ 0xd1b54a32d192ed03)
	h = splitmix64(h ^ a)
	h = splitmix64(h ^ b)
	h = splitmix64(h ^ math.Float64bits(float64(start)))
	return h, splitmix64(h)
}

// Derive returns an independent stream keyed by (parent seed stream, tag).
// Use it to give each node or pair its own stream so that adding one
// consumer does not perturb the draws of another.
func (g *RNG) Derive(tag uint64) *RNG {
	d := new(RNG)
	g.DeriveInto(tag, d)
	return d
}

// DeriveInto initialises *dst in place as the stream Derive(tag) would
// return — same parent draws, same sequence — without allocating, so
// per-node and per-pair streams can live by value in their slice.
func (g *RNG) DeriveInto(tag uint64, dst *RNG) {
	// Draw two words from the parent and mix with the tag.
	a := g.pcg.Uint64()
	b := g.pcg.Uint64()
	*dst = RNG{}
	dst.pcg.Seed(a^tag*0xbf58476d1ce4e5b9, b+tag)
}

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.r().Float64() }

// IntN returns a uniform draw in [0,n). It panics if n <= 0.
func (g *RNG) IntN(n int) int { return g.r().IntN(n) }

// Uint64 returns a uniform 64-bit draw.
func (g *RNG) Uint64() uint64 { return g.r().Uint64() }

// Uniform returns a uniform draw in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r().Float64()
}

// Pareto returns a bounded Pareto draw with shape alpha on [lo, hi].
// Heavy-tailed inter-contact times in human-mobility traces are well
// modelled by truncated power laws (Chaintreau et al.), which is why the
// synthetic Cambridge generator uses this distribution.
func (g *RNG) Pareto(alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo {
		panic("sim: Pareto requires 0 < lo < hi")
	}
	u := g.r().Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	// Inverse CDF of the bounded Pareto distribution.
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	if x < lo {
		x = lo
	}
	if x > hi {
		x = hi
	}
	return x
}

// LogNormal returns a log-normal draw parameterised by the mean and sigma
// of the underlying normal.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.r().NormFloat64())
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r().Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r().Shuffle(n, swap) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r().Float64() < p
}
