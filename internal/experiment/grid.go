// The sweep harness: the paper's §IV method — for each (series, axis
// value, run): draw mobility, pick a pair, simulate, average — spelled
// once. Run, RunConstrained and RunScale differ only in their axes,
// defaults and what they fold out of a core.Result; the pool that
// executes their grids (runGrid) and the builder of each run
// (Scenario.simulate) live here.
//
// Determinism contract, for all three sweeps: every random draw of a
// run derives from (BaseSeed, axis value, run) through seedFor, a
// point's runs fold in run order on the calling goroutine, and points
// fold in sweep order. The worker count therefore never reaches a
// result; the inline workers == 1 path is the reference the
// *MatchesSequential / *DeterministicAcrossWorkers suites compare the
// pool against.

package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dtnsim/internal/core"
)

// runOutcome is one run's result or failure.
type runOutcome struct {
	res *core.Result
	err error
}

// errSkipped marks jobs short-circuited after another job failed;
// runGrid reports the underlying failure in its place.
var errSkipped = fmt.Errorf("experiment: run skipped after earlier failure")

// gridCell is one (i, j) point's runs in flight.
type gridCell struct {
	outs    []runOutcome
	pending sync.WaitGroup
}

// runGrid executes an nI × nJ × runs simulation grid: job(w, i, j, run)
// runs one simulation on w, fold(i, j, outcomes) receives each point's
// error-free outcomes, in run order, on the calling goroutine in sweep
// order (i-major, j-minor) as soon as the point's runs have finished —
// so progress callbacks fire live and floating-point accumulation is
// the same for every worker count. fold must not retain outcomes.
//
// workers <= 0 means runtime.GOMAXPROCS(0), and more workers than jobs
// means one per job: a goroutine past that could never get a run.
// workers == 1 executes inline, in index order. Otherwise the grid is
// fanned out over workers goroutines; the first failing run flips a
// skip flag so the remaining (potentially thousands-of-nodes) jobs are
// marked skipped rather than run, and the error returned is the first
// real failure in grid order, never a skip marker.
//
// Each worker goroutine, and the inline path, owns one core.Runner and
// hands it to every job it runs, so a run reuses the working memory of
// the worker's previous run (core.Runner); which runs share a Runner
// depends on scheduling, and reuse is invisible in results.
func runGrid(nI, nJ, runs, workers int, job func(w *core.Runner, i, j, run int) runOutcome, fold func(i, j int, outs []runOutcome)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, nI*nJ*runs))
	if workers == 1 {
		var w core.Runner
		for c := 0; c < nI*nJ; c++ {
			outs := make([]runOutcome, runs)
			for run := range outs {
				if outs[run] = job(&w, c/nJ, c%nJ, run); outs[run].err != nil {
					return outs[run].err
				}
			}
			fold(c/nJ, c%nJ, outs)
		}
		return nil
	}

	cells := make([]gridCell, nI*nJ)
	for c := range cells {
		cells[c].outs = make([]runOutcome, runs)
		cells[c].pending.Add(runs)
	}
	type jobKey struct{ cell, run int }
	jobs := make(chan jobKey)
	abort := make(chan struct{})
	// window bounds how many points may be in flight (dispatched but not
	// yet folded): without it, one straggler run in an early point lets
	// the pool complete the entire remaining grid while the in-order
	// fold is blocked, holding every run's Result live at once.
	window := make(chan struct{}, workers+4)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w core.Runner
			for k := range jobs {
				out := runOutcome{err: errSkipped}
				if !failed.Load() {
					if out = job(&w, k.cell/nJ, k.cell%nJ, k.run); out.err != nil {
						failed.Store(true)
					}
				}
				cells[k.cell].outs[k.run] = out
				cells[k.cell].pending.Done()
			}
		}()
	}
	go func() {
		defer close(jobs) // lets the workers, and so wg.Wait, finish
		for c := range cells {
			select {
			case window <- struct{}{}:
			case <-abort:
				return
			}
			for run := 0; run < runs; run++ {
				jobs <- jobKey{c, run}
			}
		}
	}()

	for c := range cells {
		cells[c].pending.Wait()
		for _, out := range cells[c].outs {
			if out.err == nil {
				continue
			}
			// Short-circuit the rest of the grid and wait it out: the
			// drain is what makes the scan below safe — workers would
			// still be writing outcomes, and the causal error might not
			// have landed yet. Skipped runs only exist when some run
			// failed for real, and that one is what gets reported.
			failed.Store(true)
			close(abort)
			wg.Wait()
			for rest := c; rest < len(cells); rest++ {
				for _, out := range cells[rest].outs {
					if out.err != nil && out.err != errSkipped {
						return out.err
					}
				}
			}
			return out.err
		}
		fold(c/nJ, c%nJ, cells[c].outs)
		cells[c].outs = nil // release the point's run results once folded
		<-window
	}
	wg.Wait()
	return nil
}

// simulate builds and executes one run of a sweep. cfg carries what the
// sweep's axis varies (protocol instance, resource knobs, executor) and
// flow the workload's count and size; everything random is fixed here,
// from (baseSeed, axis, run) alone:
//
//   - the engine seed is seedFor(baseSeed, axis, run);
//   - mobility streams from that seed when the scenario regenerates per
//     run, and from baseSeed when it is fixed across runs — same
//     contacts every run. The scenario's Stream decides whether a
//     repeated seed is regenerated or replayed (a spec-built scenario
//     replays it within a contact budget, see replay.go); either way
//     the run sees the same contacts;
//   - the source/destination pair depends only on the run index, so
//     every point of every series compares the same set of pairs and
//     curves stay comparable along the axis (§IV re-randomizes the pair
//     per run).
//
// Everything mutable — the contact source and the protocol instance in
// cfg — is per call, and w is the calling worker's own Runner, so
// concurrent runs never share state. The source reaches the engine
// unwrapped.
func (sc Scenario) simulate(w *core.Runner, cfg core.Config, flow core.Flow, baseSeed uint64, axis, run int) (*core.Result, error) {
	if sc.Stream == nil {
		return nil, fmt.Errorf("scenario %q has no mobility stream", sc.Name)
	}
	cfg.Seed = seedFor(baseSeed, axis, run)
	streamSeed := baseSeed
	if sc.PerRunSchedule {
		streamSeed = cfg.Seed
	}
	src, err := sc.Stream(streamSeed)
	if err != nil {
		return nil, fmt.Errorf("%s mobility: %w", sc.Name, err)
	}
	if src.Nodes() < 2 {
		return nil, fmt.Errorf("%s mobility has %d node(s); need at least 2 for a source/destination pair", sc.Name, src.Nodes())
	}
	flow.Src, flow.Dst = pickPair(src.Nodes(), seedFor(baseSeed, 0, run))
	cfg.Source, cfg.Flows = src, []core.Flow{flow}
	cfg.TxTime, cfg.BufferCap = sc.TxTime, sc.BufferCap
	// Run the full trace so occupancy and duplication are steady-state
	// time averages as in the paper; delay and delivery ratio are
	// unaffected (§IV end conditions).
	cfg.RunToHorizon = true
	return w.Run(cfg)
}
