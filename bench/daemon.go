package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dtnsim"
	"dtnsim/client"
	"dtnsim/internal/server"
)

// hitSetSize is daemon_hit's working set.
const hitSetSize = 64

// daemonWarmups is how many ops a daemon set-up runs before the usual
// warm-up ops.
const daemonWarmups = 64

// daemon drives dtnsimd's handler through a real socket with nproc
// closed-loop clients. Cold submits scenarios nobody has seen; hit
// resubmits a working set the cache already holds.
type daemon struct {
	cold bool

	e       *env
	dir     string // the server's cache directory
	srv     *server.Server
	ts      *httptest.Server
	cl      *client.Client
	restore func() // puts http.DefaultTransport back after a traced pass
	base    client.Metrics
	known   int64 // hit: scenarios the server under test had seen when base was read

	// hit only
	set  []*hitEntry
	perm []int
}

// hitEntry is one scenario of daemon_hit's working set.
type hitEntry struct {
	spellings [2][]byte // the canonical JSON and a respelling of it
	id        string
	artifacts [3][]byte // result, series, events as first fetched
	digest    string
	contacts  int64
	touched   atomic.Bool // submitted to the server under test
}

// daemonOut is what one op fetched.
type daemonOut struct {
	submit    client.SubmitResponse
	status    client.JobStatus
	artifacts [3][]byte
	entry     *hitEntry // hit only
}

func (w *daemon) clients() int { return runtime.GOMAXPROCS(0) }

// paperScenario is a paper-scale run: one 50-bundle flow over one of the
// two substrates under one of the eight protocols.
func paperScenario(k int, seed uint64) dtnsim.Scenario {
	protos := dtnsim.BuiltinProtocolSpecs()
	return dtnsim.Scenario{
		Mobility:     paperSubstrates[k%len(paperSubstrates)],
		Protocol:     protos[(k/len(paperSubstrates))%len(protos)],
		Flows:        []dtnsim.Flow{{Src: 0, Dst: 7, Count: 50}},
		Seed:         seed,
		RunToHorizon: true,
	}
}

// coldScenario is the scenario of cold op id: a seed no other op has.
func (w *daemon) coldScenario(id int) dtnsim.Scenario {
	k := id
	if id < 0 {
		k = 1_000_000 + id // warm-ups take the top of the op's seed range
	}
	return paperScenario(k, w.e.seed*1_000_000+uint64(k))
}

// planContacts counts the contacts of a scenario's plan: what a run to
// the horizon simulates.
func planContacts(sc dtnsim.Scenario) (int64, error) {
	src, err := sc.StreamMobility()
	if err != nil {
		return 0, err
	}
	st, err := dtnsim.AnalyzeContactSource(src)
	return int64(st.Contacts), err
}

// respell writes the same scenario differently: keys in another order,
// other whitespace, the zero-valued knobs spelled out, the executor knob
// set (it never enters the key), and pq's default parameters swapped.
func respell(sc dtnsim.Scenario) []byte {
	proto := string(sc.Protocol)
	if proto == "pq:p=1,q=1" {
		proto = "pq:q=1,p=1"
	}
	f := sc.Flows[0]
	return []byte(fmt.Sprintf(`{
  "shards": 1, "horizon": 0, "sample_every": 0,
  "run_to_horizon": true,  "seed": %d,
  "flows": [ { "count": %d, "dst": %d, "src": %d } ],
  "protocol": %q,
  "mobility": %q }`, sc.Seed, f.Count, f.Dst, f.Src, proto, sc.Mobility))
}

func (w *daemon) startServer() error {
	var err error
	if w.srv, err = server.New(server.Options{CacheDir: w.dir}); err != nil {
		return err
	}
	h := w.srv.Handler()
	if w.e.tr != nil {
		h = traceHandler(w.e.tr, h)
	}
	w.ts = httptest.NewServer(h)
	w.cl = client.New(w.ts.URL)
	return nil
}

func (w *daemon) stopServer() {
	w.ts.Close()
	w.srv.Manager().Close()
}

// widenIdlePool lets http.DefaultTransport, which client.Client sends
// through, keep one idle connection per client. Its default of two makes
// every further client open a connection per request, and a pass runs out
// of ports. Done once, before the process's first request.
var widenIdlePool sync.Once

func (w *daemon) setUp(e *env) error {
	w.e = e
	widenIdlePool.Do(func() {
		if t, ok := http.DefaultTransport.(*http.Transport); ok && t.MaxIdleConnsPerHost < w.clients() {
			t.MaxIdleConnsPerHost = w.clients()
		}
	})
	var err error
	if w.dir, err = os.MkdirTemp(e.out, "cache-"); err != nil {
		return err
	}
	// ext4 will not hand out an inode again for 5 to 35 s after it was
	// deleted, and walks past every such inode of the block group each time
	// it makes a file there. The cache makes six inodes a job and a
	// tear-down deletes them all, so with the whole cache in one block
	// group a cold op took anything from 8.5 to 17 ms, depending on how
	// long ago the run before had ended. Spread the cache's 256 shard
	// directories over the disk instead.
	shards := filepath.Join(w.dir, client.KindScenario)
	if err := os.Mkdir(shards, 0o755); err != nil {
		return err
	}
	markTopDir(shards)
	if err := w.startServer(); err != nil {
		return err
	}
	if !w.cold {
		if err := w.fill(); err != nil {
			return err
		}
		// A fresh server over the filled cache: its job table is empty,
		// so the first submission of each scenario goes to the disk.
		w.stopServer()
		if err := w.startServer(); err != nil {
			return err
		}
	}
	if e.tr != nil {
		// client.Client sends through http.DefaultTransport.
		prev := http.DefaultTransport
		http.DefaultTransport = &spanTransport{base: prev, tr: e.tr}
		w.restore = func() { http.DefaultTransport = prev }
	}
	// A daemon that has been up for a while has its connections open and,
	// cold, most of its 256 cache shard directories made: the first few
	// hundred jobs are measurably slower than the rest. Pay that here.
	if err := warmUp(w, -e.warmups-1, e.reps(daemonWarmups)); err != nil {
		return err
	}
	w.known = w.touched()
	w.base, err = w.cl.Metrics(context.Background())
	return err
}

// touched counts the working-set scenarios submitted to the server under
// test so far.
func (w *daemon) touched() (n int64) {
	for _, ent := range w.set {
		if ent.touched.Load() {
			n++
		}
	}
	return n
}

// fill computes the working set through the daemon, keeping what the
// first fetch of every artifact returned.
func (w *daemon) fill() error {
	ctx := context.Background()
	w.set = make([]*hitEntry, hitSetSize)
	for k := range w.set {
		sc := paperScenario(k, w.e.seed*1_000_000+uint64(k))
		js, err := sc.JSON()
		if err != nil {
			return err
		}
		ent := &hitEntry{spellings: [2][]byte{js, respell(sc)}}
		resp, err := w.cl.SubmitScenario(ctx, js)
		if err != nil {
			return err
		}
		ent.id = resp.JobID
		if st, err := w.cl.Wait(ctx, ent.id, time.Millisecond); err != nil || st.State != client.StateDone {
			return fmt.Errorf("filling the cache: job %s: %v %v", ent.id, st, err)
		}
		if ent.artifacts, err = w.fetch(0, 0, ent.id); err != nil {
			return err
		}
		ent.digest = digest(ent.artifacts[:]...)
		if ent.contacts, err = planContacts(sc); err != nil {
			return err
		}
		w.set[k] = ent
	}
	w.perm = rand.New(rand.NewSource(int64(w.e.seed))).Perm(hitSetSize)
	return nil
}

// fetch reads a job's result, series and events, each call under a span
// of op id when parent is one.
func (w *daemon) fetch(id, parent int, jobID string) (a [3][]byte, err error) {
	for i, get := range []func(context.Context, string) ([]byte, error){w.cl.ResultBytes, w.cl.SeriesCSV, w.cl.EventsCSV} {
		err := w.call("client.artifact", id, parent, func(ctx context.Context) (err error) {
			a[i], err = get(ctx, jobID)
			return err
		})
		if err != nil {
			return a, err
		}
	}
	return a, nil
}

func (w *daemon) tearDown() error {
	if w.restore != nil {
		w.restore()
	}
	if w.ts != nil {
		w.stopServer()
	}
	return os.RemoveAll(w.dir)
}

// call runs one client call under its own span when tracing.
func (w *daemon) call(name string, id, parent int, fn func(ctx context.Context) error) error {
	ctx := context.Background()
	tr := w.e.tracer(parent)
	if tr == nil {
		return fn(ctx)
	}
	sp := tr.begin(name, parent, id)
	err := fn(withSpan(ctx, sp, id))
	tr.end(sp)
	return err
}

func (w *daemon) op(id, parent int) (*opOut, error) {
	out := &daemonOut{}
	var spec []byte
	if w.cold {
		var err error
		if spec, err = w.coldScenario(id).JSON(); err != nil {
			return nil, err
		}
	} else {
		// A seeded shuffle of the set, shifted by one every round;
		// every second submission is the respelling.
		k := (id%hitSetSize + hitSetSize) % hitSetSize
		round := (id + hitSetSize) / hitSetSize
		out.entry = w.set[(w.perm[k]+round)%hitSetSize]
		out.entry.touched.Store(true)
		spec = out.entry.spellings[id&1]
	}
	err := w.call("client.submit", id, parent, func(ctx context.Context) (err error) {
		out.submit, err = w.cl.SubmitScenario(ctx, spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	jobID := out.submit.JobID
	if w.cold {
		err = w.call("client.wait", id, parent, func(ctx context.Context) (err error) {
			out.status, err = w.cl.Wait(ctx, jobID, time.Millisecond)
			return err
		})
	} else {
		err = w.call("client.status", id, parent, func(ctx context.Context) (err error) {
			out.status, err = w.cl.Status(ctx, jobID)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	if out.artifacts, err = w.fetch(id, parent, jobID); err != nil {
		return nil, err
	}
	return &opOut{payload: out}, nil
}

func (w *daemon) verify(id int, out *opOut) error {
	d := out.payload.(*daemonOut)
	if d.status.State != client.StateDone {
		return fmt.Errorf("job %s ended %s: %s", d.submit.JobID, d.status.State, d.status.Error)
	}
	if !w.cold {
		ent := d.entry
		if d.submit.JobID != ent.id || !d.submit.Cached {
			return fmt.Errorf("resubmission got job %s (cached %v), the set has %s", d.submit.JobID, d.submit.Cached, ent.id)
		}
		for i := range d.artifacts {
			if !bytes.Equal(d.artifacts[i], ent.artifacts[i]) {
				return fmt.Errorf("job %s: artifact %d differs from its first fetch", ent.id, i)
			}
		}
		out.digest, out.contacts = ent.digest, ent.contacts
		return nil
	}
	// That the job really ran is checked at the end of the pass, against
	// /metrics. The submit response cannot tell: it says "cached" for any
	// job that is done by the time the handler looks, which on a busy box
	// a 5 ms job sometimes is.
	var res client.RunResult
	if err := json.Unmarshal(d.artifacts[0], &res); err != nil {
		return fmt.Errorf("job %s result: %w", d.submit.JobID, err)
	}
	if res.Generated != 50 || res.Delivered > res.Generated || len(res.Deliveries) != res.Delivered {
		return fmt.Errorf("job %s: generated %d, delivered %d, %d deliveries", d.submit.JobID, res.Generated, res.Delivered, len(res.Deliveries))
	}
	if len(d.artifacts[1]) == 0 || len(d.artifacts[2]) == 0 {
		return fmt.Errorf("job %s: empty series or events", d.submit.JobID)
	}
	out.digest = digest(d.artifacts[:]...)
	out.c = counters{Transmissions: res.DataTransmissions, Deliveries: int64(res.Delivered),
		Drops: res.Refused + res.Evicted + res.Expired + res.ByteDropped, Generated: int64(res.Generated)}
	return nil
}

func (w *daemon) finish(p *pass) error {
	now, err := w.cl.Metrics(context.Background())
	if err != nil {
		return err
	}
	submitted := now.Submitted - w.base.Submitted
	executed := now.Executed - w.base.Executed
	hits := now.CacheHits - w.base.CacheHits
	ops := int64(p.n() + w.e.warmups)
	wantExecuted, wantHits := ops, int64(0)
	if w.cold {
		// A cold job simulates its whole plan; count it off the clock.
		for id := 0; id < p.n(); id++ {
			if _, ok := p.digests[id]; !ok {
				continue
			}
			c, err := planContacts(w.coldScenario(id))
			if err != nil {
				return err
			}
			p.contacts += c
		}
	} else {
		// A scenario's first submission to this server is answered from
		// the disk; every later one from its job table.
		wantExecuted, wantHits = 0, w.touched()-w.known
	}
	if submitted != ops || executed != wantExecuted || hits != wantHits || now.Failed != w.base.Failed {
		return fmt.Errorf("/metrics after %d ops: submitted %d, executed %d (want %d), cache hits %d (want %d), failed %d",
			ops, submitted, executed, wantExecuted, hits, wantHits, now.Failed-w.base.Failed)
	}
	if w.e.tr == nil {
		return nil
	}

	tot, err := w.e.tr.totals()
	if err != nil {
		return err
	}
	us := func(name string) float64 {
		if t := tot[name]; t != nil {
			return 1e6 * t.p50()
		}
		return 0
	}
	p.layer["server.http.submit_us_p50"] = us("server.http.submit")
	p.layer["server.http.status_us_p50"] = us("server.http.status")
	p.layer["server.http.artifact_us_p50"] = us("server.http.artifact")
	// What a client call costs beyond the handler: encode, the socket
	// both ways, decode. Waits are left out: they sleep between polls.
	var over []float64
	for _, name := range []string{"client.submit", "client.status", "client.artifact"} {
		if t := tot[name]; t != nil {
			for _, s := range t.selfs {
				over = append(over, float64(s)/1e3)
			}
		}
	}
	p.layer["client.overhead_us_p50"] = median(over)
	if st := tot["server.http.status"]; st != nil {
		p.layer["server.polls_per_job"] = float64(st.Spans) / float64(p.n())
	}
	p.layer["server.executed"] = float64(executed)
	p.layer["server.cache_hits"] = float64(hits)
	p.layer["server.hit_ratio"] = float64(submitted-executed) / float64(submitted)
	p.layer["server.op_s_p90"] = quantile(p.ref.opS, 0.9)
	if err := w.cacheBytes(p); err != nil {
		return err
	}
	if err := w.managerProbe(p); err != nil {
		return err
	}
	return w.scenarioProbe(p)
}

// cacheBytes is the disk a cached job takes.
func (w *daemon) cacheBytes(p *pass) error {
	var size, entries int64
	err := filepath.WalkDir(w.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		size += info.Size()
		if d.Name() == "meta.json" {
			entries++
		}
		return nil
	})
	if err == nil && entries > 0 {
		p.layer["server.cache_bytes_per_job"] = float64(size) / float64(entries)
	}
	return err
}

// managerProbe calls the job manager directly, without HTTP: a cached
// scenario's submit and artifact read, and (cold only) what a job takes
// from submit to done.
func (w *daemon) managerProbe(p *pass) error {
	m := w.srv.Manager()
	var submit, artifact, jobRun []float64
	for k := 0; k < 32; k++ {
		var spec []byte
		if w.cold {
			// Ops the pass has already computed: cached by now.
			js, err := w.coldScenario(k % p.n()).JSON()
			if err != nil {
				return err
			}
			spec = js
		} else {
			spec = w.set[k%hitSetSize].spellings[k&1]
		}
		t0 := time.Now()
		job, err := m.Submit(client.SubmitRequest{Scenario: spec})
		submit = append(submit, 1e6*time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := m.Artifact(job.ID, "events.csv"); err != nil {
			return err
		}
		artifact = append(artifact, 1e6*time.Since(t0).Seconds())
	}
	p.layer["server.manager.submit_us_p50"] = median(submit)
	p.layer["server.manager.artifact_us_p50"] = median(artifact)
	if !w.cold {
		return nil
	}
	for k := 0; k < 16; k++ {
		js, err := paperScenario(k, w.e.seed*1_000_000+500_000+uint64(k)).JSON()
		if err != nil {
			return err
		}
		t0 := time.Now()
		job, err := m.Submit(client.SubmitRequest{Scenario: js})
		if err != nil {
			return err
		}
		<-job.Done()
		jobRun = append(jobRun, 1e3*time.Since(t0).Seconds())
		if state, msg := job.State(); state != client.StateDone {
			return fmt.Errorf("probe job %s ended %s: %s", job.ID, state, msg)
		}
	}
	p.layer["server.job_run_ms_p50"] = median(jobRun)
	return nil
}

// scenarioProbe times what every submission pays before the job table
// is consulted: the strict parse and the canonical key.
func (w *daemon) scenarioProbe(p *pass) error {
	var parse, key []float64
	for k := 0; k < 64; k++ {
		sc := paperScenario(k, w.e.seed+uint64(k))
		spec := respell(sc)
		t0 := time.Now()
		parsed, err := dtnsim.ParseScenario(spec)
		parse = append(parse, 1e6*time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		t0 = time.Now()
		got, err := parsed.CanonicalKey()
		key = append(key, 1e6*time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		if want, _ := sc.CanonicalKey(); got != want {
			return fmt.Errorf("respelled scenario %d has key %s, the original %s", k, got, want)
		}
	}
	p.layer["scenario.parse_us"] = median(parse)
	p.layer["scenario.key_us"] = median(key)
	return nil
}
