package core

import (
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/node"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// kernelWorld is three nodes under one kernel and one contact item:
// node 0 meets node 1 for a single transmission slot; node 2 is every
// test bundle's destination, so node 1 receives as a relay.
type kernelWorld struct {
	k     *Kernel
	nodes []*node.Node
	it    EpochItem
}

func newKernelWorld(t *testing.T, cfg Config, bufCap int) *kernelWorld {
	t.Helper()
	cfg = cfg.withDefaults()
	nodes := node.NewPopulation(nil, 3, bufCap)
	for _, n := range nodes {
		if cfg.BufferBytes > 0 {
			n.Store.SetByteCap(cfg.BufferBytes)
		}
		cfg.Protocol.Init(n)
	}
	k, err := NewKernel(nil, &cfg, nodes, make([]*EffectBuf, len(nodes)))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		k.BindHook(n)
	}
	c := contact.Contact{A: 0, B: 1, Start: 1000, End: 1000 + sim.Time(cfg.TxTime)}
	return &kernelWorld{k: k, nodes: nodes, it: EpochItem{T: c.Start, A: 0, B: 1, C: c}}
}

// exec runs the contact again over the item's reused effect buffer.
func (w *kernelWorld) exec() {
	w.it.Fx.fx = w.it.Fx.fx[:0]
	w.k.Exec(&w.it)
}

// relayed is an unpinned copy of bundle (0:seq)->2 with the given size.
func relayed(seq int, size int64) *bundle.Copy {
	return &bundle.Copy{
		Bundle: &bundle.Bundle{ID: bundle.ID{Src: 0, Seq: seq}, Dst: 2, Meta: bundle.Meta{Size: size}},
		Expiry: sim.Infinity,
	}
}

func mustPut(t *testing.T, n *node.Node, c *bundle.Copy) {
	t.Helper()
	if err := n.Store.Put(c); err != nil {
		t.Fatal(err)
	}
}

// TestKernelExecAllocatesNothing: on warmed state a contact allocates
// nothing whether its copy is stored, refused by Admit, or stored after
// droprandom evicts to make byte room — the receiver's copy is the
// kernel's scratch until a store takes it by value — and a relayed
// contact allocates nothing under any protocol kind.
func TestKernelExecAllocatesNothing(t *testing.T) {
	x, y := relayed(1, 60), relayed(2, 60)
	for _, tc := range []struct {
		name   string
		cfg    Config
		bufCap int
		// setup prepares node 1 once; reset restores it before each run.
		setup, reset func(t *testing.T, w *kernelWorld)
		check        func(t *testing.T, w *kernelWorld)
	}{
		{
			name: "stored", cfg: Config{Protocol: protocol.NewPure()}, bufCap: 10,
			setup: func(*testing.T, *kernelWorld) {},
			reset: func(_ *testing.T, w *kernelWorld) { w.nodes[1].Store.Remove(x.Bundle.ID) },
			check: func(t *testing.T, w *kernelWorld) {
				if !w.nodes[1].Store.Has(x.Bundle.ID) {
					t.Error("relay did not store the copy")
				}
			},
		},
		{
			name: "refused", cfg: Config{Protocol: protocol.NewPure()}, bufCap: 1,
			setup: func(t *testing.T, w *kernelWorld) { mustPut(t, w.nodes[1], y) },
			reset: func(*testing.T, *kernelWorld) {},
			check: func(t *testing.T, w *kernelWorld) {
				if w.nodes[1].Store.Has(x.Bundle.ID) || w.nodes[1].Refused == 0 {
					t.Errorf("full relay did not refuse: holds %v, refused %d", w.nodes[1].Store.AppendIDs(nil), w.nodes[1].Refused)
				}
			},
		},
		{
			name: "droprandom", cfg: Config{Protocol: protocol.NewPure(), BufferBytes: 100, DropPolicy: "droprandom"}, bufCap: 10,
			setup: func(*testing.T, *kernelWorld) {},
			reset: func(t *testing.T, w *kernelWorld) {
				w.nodes[1].Store.Remove(x.Bundle.ID)
				mustPut(t, w.nodes[1], y)
			},
			check: func(t *testing.T, w *kernelWorld) {
				if !w.nodes[1].Store.Has(x.Bundle.ID) || w.nodes[1].Store.Has(y.Bundle.ID) || w.nodes[1].ByteDropped == 0 {
					t.Errorf("byte pressure did not evict: holds %v, byte-dropped %d", w.nodes[1].Store.AppendIDs(nil), w.nodes[1].ByteDropped)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newKernelWorld(t, tc.cfg, tc.bufCap)
			mustPut(t, w.nodes[0], x)
			tc.setup(t, w)
			allocs := testing.AllocsPerRun(100, func() {
				tc.reset(t, w)
				w.exec()
			})
			if allocs != 0 {
				t.Errorf("Exec allocates %v objects per contact, want 0", allocs)
			}
			tc.check(t, w)
		})
	}
	// The steady state under every registered kind: the relay stores a
	// copy, so control exchange, offer (Wants fills the kernel's own
	// scratch), admission, transmission and store all run.
	for _, kind := range protocol.Default.Names() {
		t.Run("steady/"+kind, func(t *testing.T) {
			f, err := protocol.Parse(kind)
			if err != nil {
				t.Fatal(err)
			}
			w := newKernelWorld(t, Config{Protocol: f.New()}, 10)
			mustPut(t, w.nodes[0], x)
			run := func() {
				w.nodes[1].Store.Remove(x.Bundle.ID)
				w.exec()
			}
			for i := 0; i < 3; i++ {
				run()
			}
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Errorf("Exec allocates %v objects per contact, want 0", allocs)
			}
			if !w.nodes[1].Store.Has(x.Bundle.ID) {
				t.Error("relay did not store the copy")
			}
		})
	}
}

// TestRelayCopyInheritsSenderState: the copy a relay stores shares the
// sender's Bundle (the immutable identity), carries its EC and expiry,
// is stamped with the arrival time and is never pinned, and filling it
// leaves the sender's copy as it was.
func TestRelayCopyInheritsSenderState(t *testing.T) {
	w := newKernelWorld(t, Config{Protocol: protocol.NewPure()}, 10)
	src := &bundle.Copy{
		Bundle: &bundle.Bundle{ID: bundle.ID{Src: 0, Seq: 1}, Dst: 2},
		EC:     4, Expiry: 5000, StoredAt: 10, Pinned: true,
	}
	mustPut(t, w.nodes[0], src)
	w.exec()
	got := w.nodes[1].Store.Get(src.Bundle.ID)
	if got == nil {
		t.Fatal("relay did not store the copy")
	}
	arrival := w.it.C.Start + sim.Time(w.k.TxTime)
	if want := (bundle.Copy{Bundle: src.Bundle, EC: 4, Expiry: 5000, StoredAt: arrival}); *got != want {
		t.Errorf("relay copy = %+v, want %+v", *got, want)
	}
	if sent := w.nodes[0].Store.Get(src.Bundle.ID); *sent != *src {
		t.Errorf("sender copy = %+v, want it untouched: %+v", *sent, *src)
	}
}
