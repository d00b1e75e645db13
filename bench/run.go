package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// env is what a workload is set up from. Everything a workload feeds
// the program is generated from seed.
type env struct {
	root string // repository root: where go build runs
	out  string // bench/out: binaries, cache dirs, traces, results
	seed uint64
	tr   *tracer // nil: tracing off, install no decorator

	// warmups is how many untimed ops follow each set-up.
	warmups int
	// quick is a smoke run: probes repeat as little as they can, and
	// the replay cell is built once and kept in cells.
	quick bool
	cells map[uint64]*replayCell
}

// reps is how often a probe repeats: n times, once in a smoke run.
func (e *env) reps(n int) int {
	if e.quick {
		return 1
	}
	return n
}

// tracer returns the tracer an op under the given root span records
// into: none for the warm-up ops, which have no root span.
func (e *env) tracer(parent int) *tracer {
	if parent == 0 {
		return nil
	}
	return e.tr
}

// workload is one set of inputs the benchmark runs. The runner calls
// setUp, then op (timed) and verify (not timed) for op ids -1 and -2 as
// warm-up and then 0, 1, 2, …, then finish and tearDown. An op id names
// the same inputs in every pass of the same seed.
type workload interface {
	// clients is the number of closed-loop drivers: one for the engine
	// workloads, nproc for the daemon ones.
	clients() int
	setUp(e *env) error
	// op runs one operation. parent is the op's root span when tracing.
	op(id, parent int) (*opOut, error)
	// verify checks one op's outputs; an error counts the op as failed.
	verify(id int, out *opOut) error
	// finish runs the end-of-pass checks and, when tracing, adds the
	// workload's per-layer metrics to p.layer.
	finish(p *pass) error
	tearDown() error
}

// opOut is what an op hands back for checking and accounting.
type opOut struct {
	contacts int64    // simulated contacts the op stands for
	c        counters // exact, repeat for a given seed and op id
	digest   string   // of the op's outputs; equal for equal (seed, op id)
	payload  any      // the workload's own raw outputs, for verify
}

// counters are the exact counts an engine run reports.
type counters struct {
	Transmissions, Deliveries, Drops, Samples, Generated int64
}

func (c *counters) add(o counters) {
	c.Transmissions += o.Transmissions
	c.Deliveries += o.Deliveries
	c.Drops += o.Drops
	c.Samples += o.Samples
	c.Generated += o.Generated
}

// pass is one timed sequence of ops and what was measured over it.
type pass struct {
	e        *env
	ref      *pass     // in a traced pass: the untraced reference pass before it
	wall     float64   // seconds the ops took: the pass for N clients, the sum of op times for one
	opS      []float64 // op wall times, seconds, in completion order
	failed   int
	firstErr error
	contacts int64
	c        counters
	digests  map[int]string
	cpuS     float64 // user+sys over the pass, this process and reaped children
	allocMB  float64
	allocs   float64
	gcPause  float64 // seconds
	numGC    uint32
	layer    map[string]float64 // per-layer metrics by name
}

func (p *pass) n() int { return len(p.opS) }

// extraCPU is implemented by a workload whose ops burn CPU in child
// processes: seconds of child CPU to add for n timed ops. Called after
// tearDown, so the children have been reaped.
type extraCPU interface{ childCPU(n int) float64 }

func cpuSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// setUpAndWarm is what setup_s times: everything between deciding to
// run the workload and the first timed op.
func setUpAndWarm(w workload, e *env) error {
	if err := w.setUp(e); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	return warmUp(w, -1, e.warmups)
}

// warmUp runs and checks n untimed, untraced ops: ids first, first-1, ….
func warmUp(w workload, first, n int) error {
	for id := first; id > first-n; id-- {
		out, err := w.op(id, 0)
		if err == nil {
			err = w.verify(id, out)
		}
		if err != nil {
			return fmt.Errorf("warm-up op %d: %w", id, err)
		}
	}
	return nil
}

// runPass drives the ops: until the duration has passed, or exactly ops
// of them when ops > 0. Every driver is a closed loop.
func runPass(w workload, e *env, seconds float64, ops int) *pass {
	p := &pass{e: e, digests: map[int]string{}, layer: map[string]float64{}}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds(syscall.RUSAGE_SELF)

	var next atomic.Int64
	var mu sync.Mutex
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id := int(next.Add(1) - 1)
				if ops > 0 && id >= ops {
					return
				}
				// At least one op per driver, so a result always exists.
				if ops <= 0 && id >= w.clients() && !time.Now().Before(deadline) {
					return
				}
				root := 0
				if e.tr != nil {
					root = e.tr.begin("op", 0, id)
				}
				t0 := time.Now()
				out, err := w.op(id, root)
				dt := time.Since(t0).Seconds()
				if e.tr != nil {
					e.tr.end(root)
				}
				if err == nil {
					err = w.verify(id, out)
				}
				mu.Lock()
				p.opS = append(p.opS, dt)
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("op %d: %w", id, err)
					}
				} else {
					p.contacts += out.contacts
					p.c.add(out.c)
					p.digests[id] = out.digest
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	if w.clients() == 1 {
		// One driver: leave the untimed checks between ops out.
		p.wall = 0
		for _, s := range p.opS {
			p.wall += s
		}
	}
	p.cpuS = cpuSeconds(syscall.RUSAGE_SELF) - cpu0
	runtime.ReadMemStats(&ms1)
	p.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	p.allocs = float64(ms1.Mallocs - ms0.Mallocs)
	p.gcPause = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	p.numGC = ms1.NumGC - ms0.NumGC
	return p
}

// quantile returns the q-quantile of xs by linear interpolation; 0 for
// no samples, so that a metric nothing was measured for reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqrRatio says how steady a pass's median op time is: the op times are
// cut, in completion order, into eight consecutive batches, and the
// distance between the quartiles of the batch medians is given as a
// share of their median. Batching keeps a workload that mixes cheap and
// dear ops (daemon_cold's two substrates) from reading as noise.
func iqrRatio(xs []float64) float64 {
	const batches = 8
	if len(xs) < 2*batches {
		return 0
	}
	meds := make([]float64, batches)
	for b := range meds {
		meds[b] = median(xs[b*len(xs)/batches : (b+1)*len(xs)/batches])
	}
	return (quantile(meds, 0.75) - quantile(meds, 0.25)) / median(meds)
}

// runOpts selects what one run of one workload does.
type runOpts struct {
	root     string
	seed     uint64
	seconds  float64
	ops      int  // > 0: exactly this many ops instead of a duration
	trace    bool // per-layer pass instead of the end-to-end one
	setups   int  // set-up repetitions setup_s is the median of
	unpinned bool // skip the expected.json check (while regenerating it)
	// cells, when set, marks a smoke run: see env.quick.
	cells map[uint64]*replayCell
}

// result is what one run of one workload reports, and one entry of a
// result file.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Error     string             `json:"error,omitempty"`
	Ops       int                `json:"ops"` // timed ops: the sample count behind op_s_p50
	OpIQR     float64            `json:"op_iqr_ratio"`
	SetupS    []float64          `json:"setup_s,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Counters  counters           `json:"counters"`
	Contacts  int64              `json:"contacts"`
	Digests   []string           `json:"digests"` // of ops 0, 1, 2, … as far as pinned
	Notes     []string           `json:"notes,omitempty"`
}

// pinnedOps is how many leading ops of a pass have their digests
// recorded in a result and pinned in expected.json.
const pinnedOps = 4

// runWorkload runs one pass of one workload in this process.
func runWorkload(name string, o runOpts) (*result, error) {
	mk, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	out := filepath.Join(o.root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	res := &result{Workload: name, Seed: o.seed, Trace: o.trace, Metrics: map[string]float64{}}
	e := &env{root: o.root, out: out, seed: o.seed, warmups: 2}
	if o.cells != nil {
		e.warmups, e.quick, e.cells = 0, true, o.cells
	}

	// End-to-end pass: set up several times (setup_s is the median),
	// then time the ops with nothing installed. A traced run uses a short
	// one as the reference its traced ops are compared with.
	reps, seconds, ops := max(o.setups, 1), o.seconds, o.ops
	if o.trace {
		// A quarter of the time, or of a fixed op count (at least one op).
		reps, seconds, ops = 1, o.seconds/4, max(o.ops/4, min(o.ops, 1))
	}
	var w workload
	for r := 0; r < reps; r++ {
		if w != nil {
			if err := w.tearDown(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
		}
		runtime.GC()
		w = mk()
		t0 := time.Now()
		if err := setUpAndWarm(w, e); err != nil {
			_ = w.tearDown() // the set-up error is the one to report
			return nil, err
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	ref := runPass(w, e, seconds, ops)
	ref.close(w)
	p := ref
	if o.trace {
		e.tr = newTracer()
		w = mk()
		if err := setUpAndWarm(w, e); err != nil {
			_ = w.tearDown()
			return nil, err
		}
		p = runPass(w, e, o.seconds-seconds, o.ops)
		p.ref = ref
		p.failed += ref.failed
		if p.firstErr == nil {
			p.firstErr = ref.firstErr
		}
		p.close(w)
		if err := traceMetrics(p, ref, name); err != nil {
			p.fail(err)
		}
		if r := p.layer["trace.overhead_ratio"]; r >= 1.15 {
			res.Notes = append(res.Notes, fmt.Sprintf("traced ops ran %.0f%% slower than untraced ones: distrust this run's per-layer times", 100*(r-1)))
		}
	}

	res.Attempted = p.n()
	if o.trace {
		res.Attempted += ref.n()
	}
	res.Failed = p.failed
	res.Ops, res.OpIQR = p.n(), iqrRatio(p.opS)
	res.Counters, res.Contacts = p.c, p.contacts
	for id := 0; id < pinnedOps; id++ {
		if constantOps[name] && id > 0 {
			break // every op is op 0 again, and verify checked that
		}
		if d, ok := p.digests[id]; ok {
			res.Digests = append(res.Digests, d)
		}
	}
	if o.trace {
		res.Metrics = p.layer
	} else {
		endToEnd(res, p)
	}
	if !o.unpinned {
		if err := checkExpected(o.root, res); err != nil {
			p.fail(err)
			res.Failed = p.failed
		}
	}
	res.Correct = p.failed == 0
	if p.firstErr != nil {
		res.Error = p.firstErr.Error()
	}
	return res, nil
}

// close ends a pass: the workload's end-of-pass checks and layer
// metrics, its tear-down, and the CPU its reaped children burnt.
func (p *pass) close(w workload) {
	if err := w.finish(p); err != nil {
		p.fail(err)
	}
	if err := w.tearDown(); err != nil {
		p.fail(fmt.Errorf("tear-down: %w", err))
	}
	if x, ok := w.(extraCPU); ok {
		p.cpuS += x.childCPU(p.n())
	}
}

// fail records a failed check that is not one op's.
func (p *pass) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// endToEnd fills the metrics a user of the system would see.
func endToEnd(res *result, p *pass) {
	n := float64(p.n())
	res.Metrics["setup_s"] = median(res.SetupS)
	res.Metrics["op_s_p50"] = median(p.opS)
	res.Metrics["ops_per_s"] = n / p.wall
	res.Metrics["sim_contacts_per_s"] = float64(p.contacts) / p.wall
	res.Metrics["cpu_s_per_op"] = p.cpuS / n
	res.Metrics["alloc_mb_per_op"] = p.allocMB / n
	res.Metrics["allocs_per_op"] = p.allocs / n
	if res.OpIQR > 0.10 {
		res.Notes = append(res.Notes, fmt.Sprintf("noisy: the median op time moved by %.0f%% within the pass", 100*res.OpIQR))
	}
}

// traceMetrics checks the traced pass against the reference, writes the
// trace, and adds the metrics every workload reports the same way.
func traceMetrics(p, ref *pass, name string) error {
	tr := p.e.tr
	for id, d := range p.digests {
		if r, ok := ref.digests[id]; ok && r != d {
			return fmt.Errorf("op %d: traced outputs %s differ from untraced %s", id, d, r)
		}
	}
	if err := tr.write(filepath.Join(p.e.out, "trace-"+name+".json"), name, p.e.seed); err != nil {
		return err
	}
	if _, err := tr.totals(); err != nil {
		return err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.layer["proc.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	p.layer["proc.gc_pause_ms"] = 1e3 * ref.gcPause / float64(ref.n())
	p.layer["proc.num_gc"] = float64(ref.numGC) / float64(ref.n())
	p.layer["proc.op_iqr_ratio"] = iqrRatio(ref.opS)
	p.layer["trace.overhead_ratio"] = median(p.opS) / median(ref.opS)
	p.layer["trace.spans"] = float64(len(tr.spans))
	return nil
}
