package protocol

import (
	"fmt"

	"dtnsim/internal/bundle"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// PQ is Matsuda & Takine's (p,q)-epidemic routing: at each transmission
// opportunity a source node forwards its own bundles with probability P
// and relays forward carried bundles with probability Q. With P=Q=1 it
// degenerates to pure epidemic — the configuration the paper evaluates.
//
// The paper's §II description pairs P-Q with anti-packets, but its
// results section explicitly models it without any purge mechanism
// ("the protocol does not have any mechanism to purge these bundles",
// Fig. 11). AntiPackets restores the §II behaviour; it defaults to off
// to match the evaluated variant (DESIGN.md §3.6).
type PQ struct {
	base
	P, Q float64
	// AntiPackets enables the §II immunity-style purge channel.
	AntiPackets bool

	imm *Immunity // backing implementation when AntiPackets is set
	// name is the display name, formatted by the constructors: a run
	// asks for it once, and formatting allocates.
	name string
}

// NewPQ returns a P-Q epidemic instance. P and Q must lie in [0,1].
func NewPQ(p, q float64) *PQ {
	if p < 0 || p > 1 || q < 0 || q > 1 {
		panic(fmt.Sprintf("protocol: P-Q probabilities out of range: P=%v Q=%v", p, q))
	}
	return &PQ{P: p, Q: q, name: fmt.Sprintf("P-Q epidemic (P=%g,Q=%g)", p, q)}
}

// WithAntiPackets enables the §II anti-packet channel and returns the
// receiver for chaining.
func (p *PQ) WithAntiPackets() *PQ {
	p.AntiPackets = true
	p.imm = NewImmunity()
	p.name = fmt.Sprintf("P-Q epidemic (P=%g,Q=%g,anti-packets)", p.P, p.Q)
	return p
}

// Name implements Protocol.
func (p *PQ) Name() string { return p.name }

// Init implements Protocol: the anti-packet channel keeps an i-list.
func (p *PQ) Init(n *node.Node, s *Slab) {
	if p.AntiPackets {
		p.imm.Init(n, s)
	}
}

// Exchange implements Protocol: without anti-packets the control session
// is just the summary-vector swap.
//
//dtn:hotpath
func (p *PQ) Exchange(a, b *node.Node, now sim.Time, recordBudget int) int {
	if p.AntiPackets {
		return p.imm.Exchange(a, b, now, recordBudget)
	}
	return 0
}

// Wants implements Protocol: each missing bundle is offered with
// probability P when this node originated it, Q otherwise, re-drawn at
// every transmission opportunity (§II-B).
//
//dtn:hotpath
func (p *PQ) Wants(sender, receiver *node.Node, now sim.Time, rng *sim.RNG, sc *Scratch) []bundle.ID {
	candidates := missing(sender, receiver, rng, sc)
	out := candidates[:0]
	for _, id := range candidates {
		prob := p.Q
		if id.Src == sender.ID {
			prob = p.P
		}
		if rng.Bool(prob) {
			out = append(out, id)
		}
	}
	return out
}

// OnDelivered implements Protocol.
func (p *PQ) OnDelivered(dst, sender *node.Node, id bundle.ID, now sim.Time) {
	if p.AntiPackets {
		p.imm.OnDelivered(dst, sender, id, now)
	}
}
