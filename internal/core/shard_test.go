package core_test

// Sharded-executor equivalence suite: the proof obligation of DESIGN.md
// §12. Every golden cell is re-run through the sharded executor (K=4)
// and its Result compared field-for-field — floats bit-exact — against
// the sequential engine; the four event-CSV cells are additionally
// compared byte-for-byte, pinning the order and timing of every
// observable engine action. TestShardedDeterminismRace repeats sharded
// runs concurrently under `go test -race` (CI's default), which fails
// on any cross-worker data race in the epoch executor.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/metrics"
	"dtnsim/internal/report"
	"dtnsim/internal/sim"
)

// shardedConfig builds a golden-cell config routed through the sharded
// executor with k workers, pulling from a streaming source (the sharded
// loop's native contact-plan form).
func shardedConfig(t testing.TB, protoSpec string, m goldenMobility, k int) core.Config {
	t.Helper()
	cfg := goldenConfig(t, protoSpec, m, true)
	cfg.Shards = k
	return cfg
}

// TestShardedGoldenEquivalence runs the full protocol × mobility golden
// grid on the sharded executor (K=4) and demands Results bit-identical
// to the sequential engine's.
func TestShardedGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded golden grid is slow")
	}
	for _, c := range goldenCells() {
		seq, err := core.Run(goldenConfig(t, c.proto, c.mob, false))
		if err != nil {
			t.Fatalf("%s|%s sequential: %v", c.proto, c.mob.name, err)
		}
		sh, err := core.Run(shardedConfig(t, c.proto, c.mob, 4))
		if err != nil {
			t.Fatalf("%s|%s sharded: %v", c.proto, c.mob.name, err)
		}
		if !reflect.DeepEqual(toGolden(seq), toGolden(sh)) {
			t.Errorf("%s|%s: sharded (K=4) Result diverged from sequential\n got: %+v\nwant: %+v",
				c.proto, c.mob.name, toGolden(sh), toGolden(seq))
		}
	}
}

// TestShardedShardCountInvariance pins the stronger form of the
// invariant on two eventful cells: every shard count — including K=1,
// which is the sequential engine spelled differently — produces the
// byte-identical event CSV.
func TestShardedShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded event streams are slow")
	}
	for _, cell := range []struct {
		proto string
		mob   goldenMobility
	}{
		{"immunity", goldenMobilities[0]},
		{"ecttl", goldenMobilities[2]},
	} {
		want := runStream(t, cell.proto, cell.mob, false)
		for _, k := range []int{1, 2, 3, 8} {
			got := runStreamSharded(t, cell.proto, cell.mob, k)
			if !bytes.Equal(want, got) {
				t.Errorf("%s|%s: K=%d event CSV diverged from sequential (first diff at byte %d)",
					cell.proto, cell.mob.name, k, firstDiff(want, got))
			}
		}
	}
}

// runStreamSharded is runStream through the sharded executor.
func runStreamSharded(t testing.TB, proto string, mob goldenMobility, k int) []byte {
	t.Helper()
	_, csv := runSharded(t, proto, mob, k)
	return csv
}

// runSharded runs a cell on k kernels, returning its Result and event
// CSV.
func runSharded(t testing.TB, proto string, mob goldenMobility, k int) (*core.Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	cfg := shardedConfig(t, proto, mob, k)
	st := report.NewStream(&buf, true)
	cfg.Observers = []core.Observer{st}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("%s|%s (K=%d): %v", proto, mob.name, k, err)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("%s|%s (K=%d): stream write: %v", proto, mob.name, k, err)
	}
	return res, buf.Bytes()
}

// TestShardedStreamCSV diffs every event-CSV golden cell sharded (K=4)
// against both the sequential run and the committed golden file.
func TestShardedStreamCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded event streams are slow")
	}
	for _, cell := range streamGoldenCells {
		cell := cell
		t.Run(cell.file, func(t *testing.T) {
			t.Parallel()
			want := runStream(t, cell.proto, cell.mob, false)
			got := runStreamSharded(t, cell.proto, cell.mob, 4)
			if !bytes.Equal(want, got) {
				t.Errorf("sharded (K=4) event CSV diverged from sequential (first diff at byte %d)",
					firstDiff(want, got))
			}
		})
	}
}

// TestShardedDeterminismRace runs each event-CSV cell three times
// concurrently on the sharded executor — same seed, different worker
// interleavings — and demands byte-identical CSVs. Under -race this
// doubles as the data-race proof for the pool's per-window goroutines,
// shared hook table and effect buffers.
func TestShardedDeterminismRace(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent sharded streams are slow")
	}
	for _, cell := range streamGoldenCells {
		cell := cell
		t.Run(cell.file, func(t *testing.T) {
			t.Parallel()
			var wg sync.WaitGroup
			out := make([][]byte, 3)
			errs := make([]error, 3)
			for i := range out {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var buf bytes.Buffer
					cfg := shardedConfig(t, cell.proto, cell.mob, 4)
					cfg.Observers = []core.Observer{report.NewStream(&buf, true)}
					_, errs[i] = core.Run(cfg)
					out[i] = buf.Bytes()
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
			}
			for i := 1; i < len(out); i++ {
				if !bytes.Equal(out[0], out[i]) {
					t.Errorf("concurrent sharded runs 0 and %d diverge (first diff at byte %d)",
						i, firstDiff(out[0], out[i]))
				}
			}
		})
	}
}

// TestShardsValidation pins the config boundary: negative shard counts
// are rejected; everything else runs, and a count beyond the node
// population — any caller's int — is the run with one kernel per node,
// not an allocation sized by the caller (3,000,000 from a scenario file
// used to get the process OOM-killed).
func TestShardsValidation(t *testing.T) {
	cfg := goldenConfig(t, "pure", goldenMobilities[2], false)
	cfg.Shards = -1
	if _, err := core.Run(cfg); !errors.Is(err, core.ErrConfig) {
		t.Fatalf("Shards=-1: got %v, want ErrConfig", err)
	}

	cell := streamGoldenCells[0]
	want, wantCSV := runSharded(t, cell.proto, cell.mob, 0)
	got, gotCSV := runSharded(t, cell.proto, cell.mob, math.MaxInt)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("Shards=MaxInt Result diverged from Shards=0\n got: %+v\nwant: %+v", got, want)
	}
	if !bytes.Equal(wantCSV, gotCSV) {
		t.Errorf("Shards=MaxInt event CSV diverged from Shards=0 (first diff at byte %d)", firstDiff(wantCSV, gotCSV))
	}
}

// TestShardsZeroIsOnePoolKernel: Shards 0 and 1 are not two executors
// that agree but one code path — the same Result, the same event bytes
// and the same number of allocations.
func TestShardsZeroIsOnePoolKernel(t *testing.T) {
	cell := streamGoldenCells[0]
	res0, csv0 := runSharded(t, cell.proto, cell.mob, 0)
	res1, csv1 := runSharded(t, cell.proto, cell.mob, 1)
	if !reflect.DeepEqual(res0, res1) || !bytes.Equal(csv0, csv1) {
		t.Errorf("Shards=1 diverged from Shards=0 (event CSV first diff at byte %d)", firstDiff(csv0, csv1))
	}
	// Equal up to the run's maps: their growth depends on a per-map
	// random hash seed, worth a count or two in ~1,150. A second executor
	// behind Shards=1 is not that subtle — the chain-and-mailbox pool
	// this replaced allocated 2.7x the sequential run here.
	allocs := func(k int) float64 { return testing.AllocsPerRun(5, func() { runSharded(t, cell.proto, cell.mob, k) }) }
	if a0, a1 := allocs(0), allocs(1); math.Abs(a0-a1) > a0/100 {
		t.Errorf("Shards=0 allocates %v/run, Shards=1 %v/run; one path allocates one amount", a0, a1)
	}
}

// TestShardedCancelLeavesNoGoroutine cancels a two-kernel run from
// inside an epoch several windows long. The run must stop there — no
// further sampling tick — with ErrCancelled, and the pool's goroutines,
// which live for one window each, must all be gone.
func TestShardedCancelLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := shardedConfig(t, "immunity", wideGolden, 2)
	cfg.Context = ctx
	cancelled, lateSamples := false, 0
	cfg.Observers = []core.Observer{&core.FuncObserver{
		Transmit: func(_, _ contact.NodeID, _ bundle.ID, _ sim.Time) { cancelled = true; cancel() },
		Sample: func(metrics.Sample) {
			if cancelled {
				lateSamples++
			}
		},
	}}
	if _, err := core.Run(cfg); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("cancelled run returned %v; want ErrCancelled", err)
	}
	if !cancelled || lateSamples != 0 {
		t.Errorf("cancelled=%v, %d sampling ticks after the cancel; want the run stopped inside the epoch", cancelled, lateSamples)
	}
	// A goroutine that has released the window's join may not have
	// finished exiting yet; give it a moment, not a pass.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the cancelled run, %d before it", n, before)
	}
}

// TestShardsBeyondWindowAreCapped: a window holds at most WindowItems
// items, so it has at most that many node-disjoint lists, and a pool
// kernel past WindowItems could never get work. Shards = 1<<20 on a
// cell of more nodes than that builds at most WindowItems kernels and
// runs bit-identically to the sequential engine.
func TestShardsBeyondWindowAreCapped(t *testing.T) {
	const nodes = 600
	m := wideGolden
	m.name, m.spec = "wide600", "rwp:seed=7,nodes=600,area=4900,span=3000,range=100,dt=25"
	if k := core.PoolKernels(1<<20, nodes); k > core.WindowItems {
		t.Errorf("Shards=1<<20 on %d nodes builds %d kernels, want at most WindowItems = %d", nodes, k, core.WindowItems)
	}
	want, wantCSV := runSharded(t, "immunity", m, 0)
	got, gotCSV := runSharded(t, "immunity", m, 1<<20)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("Shards=1<<20 Result diverged from Shards=0\n got: %+v\nwant: %+v", got, want)
	}
	if !bytes.Equal(wantCSV, gotCSV) {
		t.Errorf("Shards=1<<20 event CSV diverged from Shards=0 (first diff at byte %d)", firstDiff(wantCSV, gotCSV))
	}
}
