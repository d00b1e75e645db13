package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dtnsim"
	"dtnsim/client"
	"dtnsim/internal/core"
	"dtnsim/internal/mobility"
	"dtnsim/internal/report"
)

// Typed errors the HTTP layer maps to status codes.
var (
	// errBadRequest wraps submission-shape problems (no spec, both
	// specs); spec-content problems already wrap dtnsim.ErrScenario.
	errBadRequest = errors.New("server: bad request")
	// errNotFound wraps lookups of ids with no job and no cache entry.
	errNotFound = errors.New("server: job not found")
	// errNotDone wraps artifact fetches on jobs not (yet) done.
	errNotDone = errors.New("server: job not done")
)

// Job is one submitted computation. Its id is deterministic —
// "sc-<key>" or "sw-<key>" with key the spec's canonical content key —
// so equal specs share a job and, once computed, a cache entry.
type Job struct {
	ID   string
	Kind string
	Key  string
	// Cached marks a job satisfied from the result cache at submit.
	Cached bool

	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	state  string
	errMsg string
}

// State returns the job's current state and error message.
func (j *Job) State() (string, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

func (j *Job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

func (j *Job) finish(state, msg string) {
	j.mu.Lock()
	j.state, j.errMsg = state, msg
	j.mu.Unlock()
	close(j.done)
}

// status renders the job as its wire form.
func (j *Job) status() client.JobStatus {
	state, msg := j.State()
	return client.JobStatus{
		JobID: j.ID, Kind: j.Kind, Key: j.Key,
		State: state, Error: msg, Cached: j.Cached,
	}
}

// Options configures a Manager.
type Options struct {
	// CacheDir is the result-cache root. Required.
	CacheDir string
	// Workers bounds concurrently executing jobs. 0 means GOMAXPROCS.
	// It does not bound the goroutines inside a sweep: every sweep job
	// runs its grid on the harness default, one goroutine per CPU (at
	// most one per run), because the normalized spec a job runs has no
	// SweepSpec.Workers.
	Workers int
	// JobTimeout caps each job's wall time from submission; 0 means no
	// limit. The deadline is threaded into the engine's epoch loop via
	// core.Config.Context, so even a single long run aborts promptly.
	JobTimeout time.Duration
}

// Manager owns the worker pool, the job table and the result cache.
type Manager struct {
	cache   *cache
	sem     chan struct{}
	timeout time.Duration
	ctx     context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*Job

	submitted atomic.Int64
	cacheHits atomic.Int64
	executed  atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
}

// NewManager opens (or creates) the cache directory and starts an
// empty manager.
func NewManager(opts Options) (*Manager, error) {
	c, err := newCache(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		cache:   c,
		sem:     make(chan struct{}, workers),
		timeout: opts.JobTimeout,
		ctx:     ctx,
		stop:    cancel,
		jobs:    make(map[string]*Job),
	}, nil
}

// keyPattern is the canonical content key: 64 lowercase hex digits.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// splitJobID resolves "sc-<key>"/"sw-<key>" to (kind, key).
func splitJobID(id string) (kind, key string, err error) {
	prefix, key, ok := strings.Cut(id, "-")
	if ok && keyPattern.MatchString(key) {
		switch prefix {
		case "sc":
			return client.KindScenario, key, nil
		case "sw":
			return client.KindSweep, key, nil
		}
	}
	return "", "", fmt.Errorf("%w: malformed job id %q", errNotFound, id)
}

func jobID(kind, key string) string {
	if kind == client.KindScenario {
		return "sc-" + key
	}
	return "sw-" + key
}

// Submit validates a spec, computes its canonical key and either joins
// the existing job, answers from the cache, or queues an execution.
func (m *Manager) Submit(req client.SubmitRequest) (*Job, error) {
	m.submitted.Add(1)
	switch {
	case len(req.Scenario) != 0 && len(req.Sweep) != 0:
		return nil, fmt.Errorf("%w: set exactly one of scenario and sweep, not both", errBadRequest)
	case len(req.Scenario) != 0:
		sc, err := dtnsim.ParseScenario(req.Scenario)
		if err != nil {
			return nil, err
		}
		if err := refuseTrace(sc.Mobility); err != nil {
			return nil, err
		}
		key, err := sc.CanonicalKey()
		if err != nil {
			return nil, err
		}
		return m.enqueue(client.KindScenario, key, func() ([]byte, execFunc, error) {
			norm, err := sc.Normalize()
			if err != nil {
				return nil, nil, err
			}
			spec, err := norm.JSON()
			return spec, func(ctx context.Context) (map[string][]byte, error) { return runScenarioJob(ctx, norm) }, err
		})
	case len(req.Sweep) != 0:
		spec, err := dtnsim.ParseSweepSpec(req.Sweep)
		if err != nil {
			return nil, err
		}
		if err := refuseTrace(spec.Scenario.Mobility); err != nil {
			return nil, err
		}
		norm, err := spec.Normalize()
		if err != nil {
			return nil, err
		}
		key, err := norm.CanonicalKey()
		if err != nil {
			return nil, err
		}
		return m.enqueue(client.KindSweep, key, func() ([]byte, execFunc, error) {
			spec, err := norm.JSON()
			return spec, func(ctx context.Context) (map[string][]byte, error) { return runSweepJob(ctx, norm) }, err
		})
	default:
		return nil, fmt.Errorf("%w: submit a scenario or a sweep spec", errBadRequest)
	}
}

// refuseTrace refuses trace mobility. A trace spec names a file by its
// path, so its canonical key is the path and not the file's bytes: a
// cached entry would outlive an edit of the file and serve the old
// run. The path would also name a file on the daemon's host, not the
// client's. Trace runs stay local (dtnsim -mob trace:PATH). m comes
// from a parsed spec, so Parse does not fail here.
func refuseTrace(m dtnsim.MobilitySpec) error {
	if src, err := mobility.Parse(string(m)); err == nil && src.Kind == "trace" {
		return fmt.Errorf("%w: %q: trace mobility runs locally only; the daemon keys a job by its spec, not the file's contents", errBadRequest, m)
	}
	return nil
}

// execFunc executes one queued job and returns its artifacts by file
// name.
type execFunc func(context.Context) (map[string][]byte, error)

// enqueue is the post-validation half of Submit: dedupe against live
// jobs, probe the cache, or start a worker. prepare returns the
// normalized spec's JSON, for the entry's manifest, and the job that
// runs that same normalized spec in this process. Normalize clears the
// keys that never change a result byte (a scenario's inert shards, a
// sweep's workers), so they never enter the key.
// Only a queued job calls prepare, so a hit pays for no normalization
// it would throw away.
func (m *Manager) enqueue(kind, key string, prepare func() ([]byte, execFunc, error)) (*Job, error) {
	id := jobID(kind, key)
	if j := m.liveJob(id); j != nil {
		return j, nil
	}
	// Disk probe outside the lock; reads of a committed entry are safe
	// against concurrent writers (rename is atomic).
	if meta, err := m.cache.get(kind, key); err != nil {
		return nil, err
	} else if meta != nil {
		m.cacheHits.Add(1)
		j := &Job{ID: id, Kind: kind, Key: key, Cached: true, state: client.StateDone, done: make(chan struct{})}
		close(j.done)
		m.mu.Lock()
		// A live job (possibly just created by a concurrent submit)
		// keeps precedence over our synthesized cached one.
		if cur, ok := m.jobs[id]; ok && !isTerminalFailure(cur) {
			m.mu.Unlock()
			return cur, nil
		}
		m.jobs[id] = j
		m.mu.Unlock()
		return j, nil
	}

	specJSON, exec, err := prepare()
	if err != nil {
		return nil, err
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if m.timeout > 0 {
		// The per-job clock starts at submission: a job that queues past
		// its deadline is cancelled when a worker finally picks it up.
		ctx, cancel = context.WithTimeout(m.ctx, m.timeout)
	} else {
		ctx, cancel = context.WithCancel(m.ctx)
	}
	j := &Job{ID: id, Kind: kind, Key: key, cancel: cancel, state: client.StatePending, done: make(chan struct{})}
	m.mu.Lock()
	if cur, ok := m.jobs[id]; ok && !isTerminalFailure(cur) {
		m.mu.Unlock()
		cancel()
		return cur, nil
	}
	m.jobs[id] = j
	m.mu.Unlock()
	m.wg.Add(1)
	go m.run(j, ctx, specJSON, exec)
	return j, nil
}

// liveJob returns the current job for id unless it failed or was
// cancelled — those may be resubmitted.
func (m *Manager) liveJob(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok && !isTerminalFailure(j) {
		return j
	}
	return nil
}

func isTerminalFailure(j *Job) bool {
	state, _ := j.State()
	return state == client.StateFailed || state == client.StateCancelled
}

// run executes one job on the worker pool.
func (m *Manager) run(j *Job, ctx context.Context, spec []byte, exec execFunc) {
	defer m.wg.Done()
	defer j.cancel()
	select {
	case m.sem <- struct{}{}:
		defer func() { <-m.sem }()
	case <-ctx.Done():
		m.cancelled.Add(1)
		j.finish(client.StateCancelled, ctx.Err().Error())
		return
	}
	j.setState(client.StateRunning)
	files, err := exec(ctx)
	if err != nil {
		if errors.Is(err, core.ErrCancelled) || ctx.Err() != nil {
			m.cancelled.Add(1)
			j.finish(client.StateCancelled, err.Error())
		} else {
			m.failed.Add(1)
			j.finish(client.StateFailed, err.Error())
		}
		return
	}
	if err := m.cache.put(j.Kind, j.Key, spec, files); err != nil {
		m.failed.Add(1)
		j.finish(client.StateFailed, err.Error())
		return
	}
	m.executed.Add(1)
	j.finish(client.StateDone, "")
}

// runScenarioJob executes one scenario and renders all three cached
// artifacts. The event and series CSVs stream from the same run the
// result came from, so the three artifacts are mutually consistent.
func runScenarioJob(ctx context.Context, sc dtnsim.Scenario) (map[string][]byte, error) {
	cfg, err := sc.Compile()
	if err != nil {
		return nil, err
	}
	cfg.Context = ctx
	var seriesBuf, eventsBuf bytes.Buffer
	series := report.NewStream(&seriesBuf, false)
	events := report.NewStream(&eventsBuf, true)
	cfg.Observers = append(cfg.Observers, series, events)
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	if err := series.Err(); err != nil {
		return nil, err
	}
	if err := events.Err(); err != nil {
		return nil, err
	}
	result, err := encodeRunResult(res)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{
		fileResult: result,
		fileSeries: seriesBuf.Bytes(),
		fileEvents: eventsBuf.Bytes(),
	}, nil
}

// runSweepJob executes one normalized sweep. Its metric list is
// explicit and canonical, so the series CSV always covers exactly what
// the sweep measured, in canonical order.
func runSweepJob(ctx context.Context, norm dtnsim.SweepSpec) (map[string][]byte, error) {
	sw, err := norm.Compile()
	if err != nil {
		return nil, err
	}
	sw.Context = ctx
	res, err := dtnsim.RunSweep(sw)
	if err != nil {
		return nil, err
	}
	result, err := encodeSweepResult(res)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{
		fileResult: result,
		fileSeries: encodeSweepSeries(res, norm.Metrics),
	}, nil
}

// Lookup resolves a job id to its status: live jobs first, then the
// cache — which is how finished jobs survive a daemon restart.
func (m *Manager) Lookup(id string) (client.JobStatus, error) {
	_, st, err := m.resolve(id)
	return st, err
}

// resolve is Lookup that also returns the table's job, nil when the
// answer came from the cache.
func (m *Manager) resolve(id string) (*Job, client.JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if ok {
		return j, j.status(), nil
	}
	kind, key, err := splitJobID(id)
	if err != nil {
		return nil, client.JobStatus{}, err
	}
	meta, err := m.cache.get(kind, key)
	if err != nil {
		return nil, client.JobStatus{}, err
	}
	if meta == nil {
		return nil, client.JobStatus{}, fmt.Errorf("%w: %s", errNotFound, id)
	}
	return nil, client.JobStatus{JobID: id, Kind: kind, Key: key, State: client.StateDone, Cached: true}, nil
}

// Artifact returns one of a done job's cached files. A file that fails
// its digest drops its job from the table, so the next submission
// probes the disk, misses, and executes again instead of being answered
// from the table forever.
func (m *Manager) Artifact(id, name string) ([]byte, error) {
	j, st, err := m.resolve(id)
	if err != nil {
		return nil, err
	}
	switch st.State {
	case client.StateDone:
	case client.StateFailed, client.StateCancelled:
		return nil, fmt.Errorf("%w: job %s %s: %s", errNotDone, id, st.State, st.Error)
	default:
		return nil, fmt.Errorf("%w: job %s is %s", errNotDone, id, st.State)
	}
	if st.Kind == client.KindSweep && name == fileEvents {
		return nil, fmt.Errorf("%w: sweep jobs have no event stream", errNotFound)
	}
	data, err := m.cache.read(st.Kind, st.Key, name)
	if errors.Is(err, errDamaged) && j != nil {
		m.mu.Lock()
		if m.jobs[id] == j {
			delete(m.jobs, id)
		}
		m.mu.Unlock()
	}
	return data, err
}

// Cancel aborts a live job; terminal and cache-only jobs are a no-op.
func (m *Manager) Cancel(id string) error {
	if _, _, err := splitJobID(id); err != nil {
		return err
	}
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if ok && j.cancel != nil {
		j.cancel()
	}
	return nil
}

// Metrics snapshots the counters.
func (m *Manager) Metrics() client.Metrics {
	var pending, running int64
	m.mu.Lock()
	for _, j := range m.jobs {
		switch state, _ := j.State(); state {
		case client.StatePending:
			pending++
		case client.StateRunning:
			running++
		}
	}
	m.mu.Unlock()
	return client.Metrics{
		Submitted: m.submitted.Load(),
		CacheHits: m.cacheHits.Load(),
		Executed:  m.executed.Load(),
		Failed:    m.failed.Load(),
		Cancelled: m.cancelled.Load(),
		Pending:   pending,
		Running:   running,
	}
}

// Drain waits for in-flight jobs; when ctx expires first, remaining
// jobs are cancelled (their engine loops abort at the next interrupt
// poll) and Drain still waits for them to unwind.
func (m *Manager) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.stop()
		<-done
		return ctx.Err()
	}
}

// Close aborts every job and waits; for tests and final shutdown.
func (m *Manager) Close() {
	m.stop()
	m.wg.Wait()
}
