// The sweep harness: the paper's §IV method — for each (series, axis
// value, run): draw mobility, pick a pair, simulate, average — spelled
// once. Run drives it for every axis (load, bandwidth, population); the
// pool that executes the grid (runGrid) and the builder of each run
// (Scenario.simulate) live here.
//
// Determinism contract, for all three axes: every random draw of a
// run derives from (BaseSeed, axis key, run) through seedFor, a
// point's runs fold in run order on the calling goroutine, and points
// fold in point-major order. The worker count therefore never reaches a
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

// gridWorker is what one worker goroutine, or the inline path, hands
// every job it runs: the Runner whose working memory the runs reuse
// (core.Runner), and the one-flow workload simulate fills for each run.
type gridWorker struct {
	runner core.Runner
	flows  [1]core.Flow
}

// gridPoint is one point's runs in flight: series i's outcome of run
// run is outs[i*runs+run], so each series' runs lie together in run
// order.
type gridPoint struct {
	outs    []runOutcome
	pending sync.WaitGroup
}

// runGrid executes an nI × nJ × runs simulation grid, nI series over nJ
// points: job(w, i, j, run) runs one simulation on w. Jobs start point
// by point, and within a point run by run, every series of a run
// together (j, run, i order): the series of one (point, run) read the
// same mobility, so a shared plan is read by runs that start together
// (replay.go). fold(i, j, outcomes) receives each (series, point)'s
// error-free outcomes, in run order, on the calling goroutine in
// point-major order (j-major, i-minor) as soon as the point's runs have
// finished — so progress callbacks fire live and floating-point
// accumulation is the same for every worker count. fold must not
// retain outcomes.
//
// workers == 0 means runtime.GOMAXPROCS(0), a negative count is
// refused, and more workers than jobs means one per job: a goroutine
// past that could never get a run.
// workers == 1 executes inline, in job order. Otherwise the grid is
// fanned out over workers goroutines; the first failing run flips a
// skip flag so the remaining (potentially thousands-of-nodes) jobs are
// marked skipped rather than run, and the error returned is the first
// real failure in job order, never a skip marker.
//
// Each worker goroutine, and the inline path, owns one gridWorker and
// hands it to every job it runs, so a run reuses the working memory of
// the worker's previous run (core.Runner); which runs share a worker
// depends on scheduling, and reuse is invisible in results. The inline
// path also reuses one outcome slice for every point: fold must not
// retain it.
func runGrid(nI, nJ, runs, workers int, job func(w *gridWorker, i, j, run int) runOutcome, fold func(i, j int, outs []runOutcome)) error {
	if workers < 0 {
		return fmt.Errorf("experiment: negative workers %d (0 means every CPU)", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	per := nI * runs // jobs per point
	workers = max(1, min(workers, nJ*per))
	foldPoint := func(j int, outs []runOutcome) {
		for i := 0; i < nI; i++ {
			fold(i, j, outs[i*runs:(i+1)*runs])
		}
	}
	if workers == 1 {
		var w gridWorker
		outs := make([]runOutcome, per)
		for j := 0; j < nJ; j++ {
			clear(outs)
			for k := 0; k < per; k++ {
				i, run := k%nI, k/nI
				out := &outs[i*runs+run]
				if *out = job(&w, i, j, run); out.err != nil {
					return out.err
				}
			}
			foldPoint(j, outs)
		}
		return nil
	}

	points := make([]gridPoint, nJ)
	for j := range points {
		points[j].outs = make([]runOutcome, per)
		points[j].pending.Add(per)
	}
	type jobKey struct{ j, i, run int }
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
			var w gridWorker
			for k := range jobs {
				out := runOutcome{err: errSkipped}
				if !failed.Load() {
					if out = job(&w, k.i, k.j, k.run); out.err != nil {
						failed.Store(true)
					}
				}
				points[k.j].outs[k.i*runs+k.run] = out
				points[k.j].pending.Done()
			}
		}()
	}
	go func() {
		defer close(jobs) // lets the workers, and so wg.Wait, finish
		for j := range points {
			select {
			case window <- struct{}{}:
			case <-abort:
				return
			}
			for k := 0; k < per; k++ {
				jobs <- jobKey{j, k % nI, k / nI}
			}
		}
	}()

	for j := range points {
		points[j].pending.Wait()
		if points[j].firstErr(nI, runs, true) != nil {
			// Short-circuit the rest of the grid and wait it out: the
			// drain is what makes the scan below safe — workers would
			// still be writing outcomes, and the causal error might not
			// have landed yet. Skipped runs only exist when some run
			// failed for real, and that one is what gets reported.
			failed.Store(true)
			close(abort)
			wg.Wait()
			for rest := j; rest < len(points); rest++ {
				if err := points[rest].firstErr(nI, runs, false); err != nil {
					return err
				}
			}
			return points[j].firstErr(nI, runs, true)
		}
		foldPoint(j, points[j].outs)
		points[j].outs = nil // release the point's run results once folded
		<-window
	}
	wg.Wait()
	return nil
}

// firstErr returns the point's first failure in job order, counting
// skip markers only when skips is set.
func (p *gridPoint) firstErr(nI, runs int, skips bool) error {
	for k := 0; k < nI*runs; k++ {
		if err := p.outs[k%nI*runs+k/nI].err; err != nil && (skips || err != errSkipped) {
			return err
		}
	}
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
//     replays each seed its sweep reads more than once, see replay.go);
//     either way the run sees the same contacts;
//   - the source/destination pair depends only on the run index, so
//     every point of every series compares the same set of pairs and
//     curves stay comparable along the axis (§IV re-randomizes the pair
//     per run).
//
// Everything mutable — the contact source and the protocol instance in
// cfg — is per call, and w is the calling worker's own, so concurrent
// runs never share state. The source reaches the engine unwrapped.
func (sc Scenario) simulate(w *gridWorker, cfg core.Config, flow core.Flow, baseSeed uint64, axis, run int) (*core.Result, error) {
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
	w.flows[0] = flow
	cfg.Source, cfg.Flows = src, w.flows[:]
	cfg.TxTime, cfg.BufferCap = sc.TxTime, sc.BufferCap
	// Run the full trace so occupancy and duplication are steady-state
	// time averages as in the paper; delay and delivery ratio are
	// unaffected (§IV end conditions).
	cfg.RunToHorizon = true
	return w.runner.Run(cfg)
}
