// Benchmark harness: one benchmark per figure and table in the paper's
// evaluation section (§V). Each benchmark regenerates its experiment at
// a reduced run count (3 instead of the paper's 10 — pass -benchruns in
// spirit by editing benchRuns) and reports headline series values via
// b.ReportMetric, so `go test -bench=.` both times the harness and
// emits the numbers EXPERIMENTS.md records. cmd/figures runs the same
// experiments at full fidelity with CSV output.
package dtnsim_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dtnsim"
	"dtnsim/internal/bundle"
	"dtnsim/internal/dist"
	"dtnsim/internal/node"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// benchRuns trades precision for speed in benchmarks; cmd/figures uses
// the paper's 10.
const benchRuns = 3

const benchSeed = 2012

// runFigure executes a figure's sweep sequentially (Workers: 1) once
// per benchmark iteration and reports the value of the figure's metric
// at the lowest and highest load for every series. The sequential pool
// keeps timings comparable with pre-parallel-harness records; the
// *Parallel variants below time the same sweeps on all CPUs, so the
// recorded pair documents the worker-pool speedup.
func runFigure(b *testing.B, id string) {
	b.Helper()
	runFigureWorkers(b, id, 1)
}

// runFigureWorkers is runFigure with an explicit Sweep.Workers value
// (0 = all CPUs). Metric values are identical for every worker count;
// only the wall clock changes.
func runFigureWorkers(b *testing.B, id string, workers int) {
	b.Helper()
	f, err := dtnsim.FigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	f.Sweep.Runs = benchRuns
	f.Sweep.BaseSeed = benchSeed
	f.Sweep.Workers = workers
	var res *dtnsim.SweepResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = dtnsim.RunSweep(f.Sweep)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, s := range res.Series {
		first := s.Points[0].Values[f.Metric]
		last := s.Points[len(s.Points)-1].Values[f.Metric]
		tag := metricTag(s.Label)
		if !math.IsNaN(first) {
			b.ReportMetric(first, fmt.Sprintf("%s@load%d", tag, s.Points[0].Load))
		}
		if !math.IsNaN(last) {
			b.ReportMetric(last, fmt.Sprintf("%s@load%d", tag, s.Points[len(s.Points)-1].Load))
		}
	}
}

// metricTag compresses a protocol label into a benchmark-metric-safe tag.
func metricTag(label string) string {
	r := strings.NewReplacer(
		"Epidemic with ", "",
		"P-Q epidemic (anti-packets)", "pq-anti",
		"P-Q epidemic", "pq",
		"cumulative immunity", "cumimm",
		"dynamic TTL", "dynttl",
		" ", "",
		"=", "",
	)
	return strings.ToLower(r.Replace(label))
}

// Figures 7–13 and 15–20 plus the overhead comparison: §V's full set.

func BenchmarkFig07DelayTrace(b *testing.B)          { runFigure(b, "fig07") }
func BenchmarkFig08DelayRWP(b *testing.B)            { runFigure(b, "fig08") }
func BenchmarkFig09DupTrace(b *testing.B)            { runFigure(b, "fig09") }
func BenchmarkFig10DupRWP(b *testing.B)              { runFigure(b, "fig10") }
func BenchmarkFig11BufTrace(b *testing.B)            { runFigure(b, "fig11") }
func BenchmarkFig12BufRWP(b *testing.B)              { runFigure(b, "fig12") }
func BenchmarkFig13DeliveryTrace(b *testing.B)       { runFigure(b, "fig13") }
func BenchmarkFig15DeliveryEnhancedRWP(b *testing.B) { runFigure(b, "fig15") }
func BenchmarkFig16DeliveryEnhancedTrace(b *testing.B) {
	runFigure(b, "fig16")
}
func BenchmarkFig17BufEnhancedRWP(b *testing.B)   { runFigure(b, "fig17") }
func BenchmarkFig18BufEnhancedTrace(b *testing.B) { runFigure(b, "fig18") }
func BenchmarkFig19DupEnhancedRWP(b *testing.B)   { runFigure(b, "fig19") }
func BenchmarkFig20DupEnhancedTrace(b *testing.B) { runFigure(b, "fig20") }
func BenchmarkOverheadImmunity(b *testing.B)      { runFigure(b, "overhead") }

// BenchmarkFig14IntervalSensitivity runs the paired controlled-interval
// scenarios (max gap 400 s vs 2000 s) and reports TTL=300 delivery for
// both, whose ratio is the paper's Fig. 14 headline.
func BenchmarkFig14IntervalSensitivity(b *testing.B) {
	short, long := dtnsim.Fig14Pair()
	short.Runs, long.Runs = benchRuns, benchRuns
	short.BaseSeed, long.BaseSeed = benchSeed, benchSeed
	var rs, rl *dtnsim.SweepResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs, err = dtnsim.RunSweep(short); err != nil {
			b.Fatal(err)
		}
		if rl, err = dtnsim.RunSweep(long); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	avg := func(r *dtnsim.SweepResult) float64 {
		sum := 0.0
		for _, p := range r.Series[0].Points {
			sum += p.Values[dtnsim.MetricDelivery]
		}
		return sum / float64(len(r.Series[0].Points))
	}
	b.ReportMetric(avg(rs), "delivery@interval400")
	b.ReportMetric(avg(rl), "delivery@interval2000")
}

// BenchmarkTableIIComparison regenerates the paper's closing table and
// reports the six protocols' load-averaged delivery rates. Workers: 1
// times the sequential reference path.
//
// BENCH_hotpath.json: 216 runs/op including schedule generation and
// harness overhead; 2.46 s -> 0.59 s (4.2x) across the allocation-free
// store/metrics/scheduler rework ('seed' holds the pre-rework numbers,
// measured on the same machine as 'benchmarks'). It does not set
// ReportAllocs, so its allocs_op is recorded as 0.
func BenchmarkTableIIComparison(b *testing.B) {
	benchmarkTableII(b, 1)
}

// BenchmarkTableIIComparisonParallel is the same computation on a
// worker pool sized to all CPUs; its wall clock against the sequential
// benchmark above records the sweep harness's parallel speedup.
func BenchmarkTableIIComparisonParallel(b *testing.B) {
	benchmarkTableII(b, 0)
}

func benchmarkTableII(b *testing.B, workers int) {
	b.Helper()
	var rows []dtnsim.TableIIRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = dtnsim.TableII(benchSeed, benchRuns, workers)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		tag := metricTag(r.Protocol)
		b.ReportMetric(r.DeliveryTr, tag+"-delivery-trace-%")
		b.ReportMetric(r.OccupancyTr, tag+"-occupancy-trace-%")
	}
}

// Parallel variants of figure sweeps (same metrics, all-CPU worker
// pool): paired with their sequential counterparts they record the
// speedup in BENCH_*.json.

func BenchmarkFig07DelayTraceParallel(b *testing.B) { runFigureWorkers(b, "fig07", 0) }
func BenchmarkFig16DeliveryEnhancedTraceParallel(b *testing.B) {
	runFigureWorkers(b, "fig16", 0)
}
func BenchmarkFig19DupEnhancedRWPParallel(b *testing.B) { runFigureWorkers(b, "fig19", 0) }

// --- engine micro-benchmarks -------------------------------------------------
//
// These time the simulator's hot paths so regressions in the substrate
// are visible independently of experiment composition.
//
// How BENCH_hotpath.json gates them (cmd/benchguard, CI's "Hot-path
// benchmark regression gate"): only machine-independent invariants are
// enforced. A 'pairs' entry is the speedup of a fast benchmark over a
// slow one run back-to-back on the same machine, and must stay within
// tolerance of its baseline ratio; the baselines are deliberately
// conservative floors (about half the measured ratio for the
// indexed-vs-scan pairs) so hardware variance cannot flake the gate
// while a real regression — a reintroduced per-contact sort or
// allocation — still collapses the ratio far below the bar.
// 'zero_alloc' benchmarks must stay at 0 allocs/op and 'mem_pairs'
// floor a memory ratio. Raw ns_op values are from the dev machine and
// gate only with -strict. Each pair's rationale and measured range is
// the doc comment of its benchmark; EXPERIMENTS.md says how to run and
// regenerate.

// BenchmarkEngineTraceRun is one immunity run over the Cambridge trace.
//
// BENCH_hotpath.json: 10.45 ms -> 1.35 ms and 14726 -> 3062 allocs/op
// across the store/metrics/scheduler rework; 3077 -> 1459 allocs/op when
// PR 12 deleted the scheduler's events and closures. It is the slow side
// of "cancel-overhead" (BenchmarkEngineTraceRunCancellable).
func BenchmarkEngineTraceRun(b *testing.B) {
	schedule, err := dtnsim.CambridgeTrace(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := dtnsim.Run(dtnsim.Config{
			Schedule:     schedule,
			Protocol:     dtnsim.Immunity(),
			Flows:        []dtnsim.Flow{{Src: 0, Dst: 7, Count: 50}},
			Seed:         uint64(i),
			RunToHorizon: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTraceRunCancellable is BenchmarkEngineTraceRun with a
// live (never-cancelled) Config.Context, so the benchguard pair
// "cancel-overhead" proves the loop's Context poll costs nothing
// measurable on the engine hot path: the slow/fast ratio isolates the
// interrupt poll (a nil check per collected item plus one ctx.Err()
// every 64), and the pair's 0.10 tolerance gates it at <~11% overhead
// (measured -12%..+7% across sessions, i.e. within container noise).
// Both EngineTraceRun entries are always re-measured together in one
// session so their committed raw values stay mutually consistent.
func BenchmarkEngineTraceRunCancellable(b *testing.B) {
	schedule, err := dtnsim.CambridgeTrace(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := dtnsim.Run(dtnsim.Config{
			Schedule:     schedule,
			Protocol:     dtnsim.Immunity(),
			Flows:        []dtnsim.Flow{{Src: 0, Dst: 7, Count: 50}},
			Seed:         uint64(i),
			RunToHorizon: true,
			Context:      ctx,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContactHotPath times the contact-processing hot path at
// Table II scale: every registry protocol at the paper's highest load
// (50 bundles) over both Table II substrates (Cambridge trace and
// subscriber RWP), run to the horizon so purge/TTL/sampling stay active
// after the last delivery. This is the headline number BENCH_hotpath.json
// tracks for the allocation-free store/metrics/scheduler rework
// (indexed buffer store, incremental duplication metrics, streaming
// contact scheduling): 154.5 ms -> 14.5 ms per op (10.6x; the acceptance
// floor was 2x), 65311 -> 32611 allocs/op when PR 12 deleted the
// scheduler's events and closures, and -> 31035 when PR 19 dropped the
// per-node hash maps (15.3 -> 12.3 ms on the baseline's machine class).
func BenchmarkContactHotPath(b *testing.B) {
	trace, err := dtnsim.CambridgeTrace(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	rwp, err := dtnsim.SubscriberRWP(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	schedules := []*dtnsim.Schedule{trace, rwp}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sched := range schedules {
			for _, p := range dtnsim.Protocols() {
				_, err := dtnsim.Run(dtnsim.Config{
					Schedule:     sched,
					Protocol:     p,
					Flows:        []dtnsim.Flow{{Src: 0, Dst: 7, Count: 50}},
					Seed:         benchSeed,
					RunToHorizon: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkContactHotPathConstrained is BenchmarkContactHotPath with
// the finite-bandwidth machinery active but never binding: 1-byte
// bundles under an effectively unbounded bandwidth and byte capacity.
// The event sequence is identical to the unconstrained benchmark, so
// the pair isolates the resource model's bookkeeping overhead;
// benchguard gates the ratio at <~11% (BENCH_hotpath.json pair
// "constrained-overhead", its own tolerance 0.10; measured 0-14% across
// sessions on a noisy container, ~6% median — the pair runs back-to-back
// in one session, so machine noise largely cancels, and CI's 10
// iterations keep a ~1.0x ratio out of scheduler-noise territory). Both
// ContactHotPath entries are re-measured together in one session.
func BenchmarkContactHotPathConstrained(b *testing.B) {
	trace, err := dtnsim.CambridgeTrace(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	rwp, err := dtnsim.SubscriberRWP(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	schedules := []*dtnsim.Schedule{trace, rwp}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sched := range schedules {
			for _, p := range dtnsim.Protocols() {
				_, err := dtnsim.Run(dtnsim.Config{
					Schedule:     sched,
					Protocol:     p,
					Flows:        []dtnsim.Flow{{Src: 0, Dst: 7, Count: 50, Size: 1}},
					Seed:         benchSeed,
					RunToHorizon: true,
					Bandwidth:    1e15,
					BufferBytes:  1 << 50,
					DropPolicy:   "dropfront",
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkImmunityExchangeSteady times one immunity control session
// in the steady state the loaded cells spend most contacts in: two
// neighbours with full stores whose 200-record i-lists already agree,
// so each side resends its whole list, neither learns anything, and
// nothing has entered either store since the last purge. The transfer
// is then a comparison-only walk of two sorted lists and the purge is
// answered by its memo, so the session must not allocate (benchguard
// zero_alloc) — and must not write: a regression that re-inserts,
// re-hashes or re-scans shows up here long before it moves replay_seq.
func BenchmarkImmunityExchangeSteady(b *testing.B) {
	im := protocol.NewImmunity()
	x, y := node.New(0, 10), node.New(1, 10)
	var slab protocol.Slab
	slab.Size(2)
	im.Init(x, &slab)
	im.Init(y, &slab)
	for seq := 1; seq <= 200; seq++ {
		// y consumes the bundle from x: both adopt the record.
		im.OnDelivered(y, x, bundle.ID{Src: 2, Seq: seq}, 0)
	}
	for _, n := range []*node.Node{x, y} {
		for seq := 1; n.Store.Free() > 0; seq++ {
			cp := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 3, Seq: seq}, Dst: 9}, Expiry: sim.Infinity}
			if err := n.Store.Put(cp); err != nil {
				b.Fatal(err)
			}
		}
	}
	im.Exchange(x, y, 1, 1<<30)
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for i := 0; i < b.N; i++ {
		sent += im.Exchange(x, y, sim.Time(i), 1<<30)
	}
	// Each side resends its whole 200-record list blind.
	if sent != b.N*400 {
		b.Fatalf("exchanges carried %d records, want %d", sent, b.N*400)
	}
}

func BenchmarkSyntheticTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dtnsim.CambridgeTrace(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubscriberRWPGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dtnsim.SubscriberRWP(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- sharded executor benchmarks ---------------------------------------------
//
// The benchguard sharded pair times the same 5k-node constant-density
// RWP cell under different kernel counts. Results are bit-identical for
// every count (the DESIGN.md §12 contract, proven by the golden
// equivalence suite), so the slow/fast ratio isolates executor cost:
// "sharded-speedup" floors the parallel win at one kernel per CPU.
// There is no one-kernel pair any more: Shards = 1 is the sequential
// engine itself (one loop, one pool, K = 1), so a "sharded-overhead"
// ratio would compare a path with itself.
// The 5k entries that share a pair are re-measured together, in one
// session with CI's own invocation, whenever one of them moves; since
// PR 12 that has been on a different box than BENCH_hotpath.json's
// 'machine' (Intel Xeon @ 2.60GHz, 2 cores, go1.24), and the 5k cells
// record the -benchmem columns CI has always passed (allocs_op, b_op).

// runShardedBench times one 5k-node run per iteration through the
// executor selected by shards (core.Config semantics: 0 or 1 = one
// kernel on the calling goroutine, K >= 2 = every window split across K
// goroutines). A scenario's shards key is inert, so the executor is set
// on the compiled Config, the one place a Go caller can still reach
// K >= 2. Scenario compilation — cheap next to the run, but
// allocating — happens off the clock so the measured op is the executor
// alone.
func runShardedBench(b *testing.B, shards int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg, err := dtnsim.Scenario{
			Mobility:     "rwp:nodes=5000,area=14142,span=2500,range=100,dt=25",
			Protocol:     "pure",
			Flows:        []dtnsim.Flow{{Src: 0, Dst: 4999, Count: 30}},
			Seed:         benchSeed,
			RunToHorizon: true,
		}.Compile()
		if err != nil {
			b.Fatal(err)
		}
		cfg.Shards = shards
		b.StartTimer()
		if _, err := dtnsim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedRun5kSequential is the one-kernel executor: the slow
// side of the sharded-speedup and dist-speedup pairs and of
// dist-overhead.
func BenchmarkShardedRun5kSequential(b *testing.B) { runShardedBench(b, 0) }

// BenchmarkShardedRun5k runs one shard per CPU. It skips below four
// cores — the machine-independent speedup gate is only meaningful when
// there is parallel hardware to win on — and the benchguard pair
// ("sharded-speedup", >=2x over sequential: the sharded engine's
// acceptance floor on 4+ cores) is marked optional: benchguard skips
// rather than fails an optional pair whose benchmarks are absent, so the
// gate enforces on capable CI machines and stays green on small
// containers. Its raw ns_op is deliberately absent from 'benchmarks':
// the baseline machine has one core.
func BenchmarkShardedRun5k(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 4 {
		b.Skip("sharded speedup needs 4+ cores")
	}
	runShardedBench(b, runtime.GOMAXPROCS(0))
}

// --- distributed executor benchmarks -----------------------------------------
//
// The benchguard dist pairs put numbers on the process boundary using
// the same 5k-node cell as the sharded pairs (results stay
// bit-identical, so the ratios isolate executor cost): "dist-overhead"
// gates one worker process against the sequential run —
// the full serialization/IPC cost with no parallelism to pay for it —
// and "dist-speedup" floors the N-worker win over the sequential loop
// on machines with the cores to show one.

// distWorker builds cmd/dtnsim-worker once per benchmark binary; the
// benchmarks need a real worker executable, which `go test` does not
// provide, so they build it with the go toolchain and skip without one.
var distWorker struct {
	once sync.Once
	bin  string
	err  error
}

func distWorkerBin(b *testing.B) string {
	b.Helper()
	distWorker.once.Do(func() {
		goTool, err := exec.LookPath("go")
		if err != nil {
			distWorker.err = fmt.Errorf("no go toolchain to build dtnsim-worker: %w", err)
			return
		}
		dir, err := os.MkdirTemp("", "dtnsim-bench-worker-")
		if err != nil {
			distWorker.err = err
			return
		}
		bin := filepath.Join(dir, "dtnsim-worker")
		if out, err := exec.Command(goTool, "build", "-o", bin, "dtnsim/cmd/dtnsim-worker").CombinedOutput(); err != nil {
			distWorker.err = fmt.Errorf("building dtnsim-worker: %v\n%s", err, out)
			return
		}
		distWorker.bin = bin
	})
	if distWorker.err != nil {
		b.Skip(distWorker.err)
	}
	return distWorker.bin
}

// runDistBench times the 5k-node cell on worker processes. The workers
// are spawned once, off the clock — process startup is session setup,
// not per-run executor cost; Init/round framing is on the clock because
// Run drives it. fullSnapshots disables delta shipping, isolating the
// wire-size win of the state cache.
func runDistBench(b *testing.B, workers int, fullSnapshots bool) {
	b.Helper()
	be, err := dist.New(dist.Options{Workers: workers, Protocol: "pure", WorkerBin: distWorkerBin(b), FullSnapshots: fullSnapshots})
	if err != nil {
		b.Fatal(err)
	}
	defer be.Close()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg, err := dtnsim.Scenario{
			Mobility:     "rwp:nodes=5000,area=14142,span=2500,range=100,dt=25",
			Protocol:     "pure",
			Flows:        []dtnsim.Flow{{Src: 0, Dst: 4999, Count: 30}},
			Seed:         benchSeed,
			RunToHorizon: true,
		}.Compile()
		if err != nil {
			b.Fatal(err)
		}
		cfg.Backend = be
		b.StartTimer()
		if _, err := dtnsim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistRun5kOneWorker runs one worker process: every item
// crosses the process boundary and nothing runs in parallel, so its
// time over BenchmarkShardedRun5kSequential's is the run plus the pure
// serialization/IPC cost.
//
// What "dist-overhead" means since PR 24. The sequential run of this
// cell is its mobility generator and little else, and PR 24 made the
// generator cheap (0.62 s -> ~0.094 s per run, b_op 30.1 -> 8.7 MB,
// allocs_op 205.6k -> 21.3k) while the wire path did not move: one
// worker costs ~0.21 s on top of the run, before and after (0.86 s ->
// ~0.30 s). The ratio therefore fell from 0.66 to 0.30-0.44 (eight
// sessions: 0.30, 0.30, 0.31, 0.31, 0.31, 0.33, 0.36, 0.44) without
// anything in dist getting slower: it no longer says "a worker process
// costs half again a run", it says "on a cell with no data-plane work,
// the wire costs about twice what generating and dispatching the
// contacts does". Read it as a gate on that absolute ~0.21 s. The same
// sessions put the full-snapshot path (BenchmarkDistRun5kOneWorkerFull)
// at 0.19-0.23 of sequential, so the baseline is 0.30 with tolerance
// 0.2: the floor, 0.24, sits between the two — a return to full-state
// replies or per-frame buffers trips it, the delta path's slowest
// reading does not. The denominator is now three ~90 ms iterations and
// swings more than the 0.6 s one did: the 0.44 session is one where it
// read 0.131 s (and the full path 0.32), so a noisy session can let a
// regression through; it cannot fail a healthy tree.
//
// History, each step measured in one session. Against the one-shard run
// (the materializing K = 1 pool, deleted in PR 23): 0.39-0.44 with full
// snapshots every round (PR 9), ~0.54 with delta state shipping
// (PR 10), 0.74-0.84 once replies became patches and both ends kept
// their frame buffers (PR 13: b_op 280.6 -> 99.1 MB). Against the
// sequential run: 0.55-0.87 over eight sessions on a busy box, baseline
// 0.66 (PR 23: 512-item windows, b_op 99.1 -> 31.8 MB).
func BenchmarkDistRun5kOneWorker(b *testing.B) { runDistBench(b, 1, false) }

// BenchmarkDistRun5kOneWorkerFull is the same cell with delta shipping
// disabled: every round re-ships full node snapshots, as every round
// did before the state cache existed. The benchguard
// "dist-delta-overhead" pair gates the delta path's win against it:
// Options.FullSnapshots forces full state in both directions (the
// coordinator does not announce the delta capability, so the worker
// sends no patches either); measured 1.31x slower than the delta path
// at PR 10 and 1.20-1.24x at PR 13 (912/893/932 ms) — lower because
// kept buffers made the full path cheaper too, not because the delta
// path lost anything — and 1.37-1.60x since PR 24 took ~0.5 s of
// generator out of both sides. The committed 1.15 baseline with 0.10
// tolerance floors the ratio at ~1.04, so a silently dead delta path
// (ratio 1.0) fails while container noise does not.
func BenchmarkDistRun5kOneWorkerFull(b *testing.B) { runDistBench(b, 1, true) }

// BenchmarkDistRun5k runs one worker process per CPU. Like
// BenchmarkShardedRun5k it skips below four cores and its benchguard
// pair ("dist-speedup", >=2x over the sequential loop) is optional, so
// the speedup floor gates only on machines with the parallel hardware
// the processes are meant to win on; the 1-core baseline machine
// records no raw ns_op for it.
func BenchmarkDistRun5k(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 4 {
		b.Skip("distributed speedup needs 4+ cores")
	}
	runDistBench(b, runtime.GOMAXPROCS(0), false)
}

// --- parameter ablations (§IV swept values and enhancement knobs) ------------

func BenchmarkAblationTTLSweep(b *testing.B)      { runFigure(b, "ttlsweep") }
func BenchmarkAblationPQSweep(b *testing.B)       { runFigure(b, "pqsweep") }
func BenchmarkAblationDynMultiplier(b *testing.B) { runFigure(b, "dynmult") }
func BenchmarkAblationECThreshold(b *testing.B)   { runFigure(b, "ecthresh") }
