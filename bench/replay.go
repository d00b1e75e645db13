package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"dtnsim"
	"dtnsim/internal/dist"
	"dtnsim/internal/dist/transport"
)

// replayMobility is the loaded cell's plan: 1000 nodes at the 5k cell's
// density, long enough for ~187k contacts.
const replayMobility = "rwp:nodes=1000,area=6325,span=20000,range=100,dt=25"

const replayProtocol = "immunity"

// replayCell is the loaded cell's inputs and the outputs every executor
// must reproduce.
type replayCell struct {
	sched *dtnsim.Schedule
	flows []dtnsim.Flow
	proto dtnsim.ProtocolFactory
	seed  uint64

	want        string // digest of the sequential reference run
	reportBytes int    // series + events CSV of one run

	materializeS, validateS float64
}

// replay is the loaded cell: the plan is materialized once in set-up and
// replayed from memory by every op, so the executor, the protocol, the
// buffers and the report writers carry the op and mobility does not.
// One type serves the three executors; only how the Config is finished
// differs.
type replay struct {
	executor string // "seq", "shard" or "dist"

	e *env
	*replayCell

	// dist only
	be        *dist.Backend
	pipes     *transport.Pipes
	conn      *tracedConn
	spawnS    float64
	childBase float64    // RUSAGE_CHILDREN before the worker was spawned
	childCPUs float64    // what the worker burnt, known once it is reaped
	wireBase  wireCounts // the conn's counts when the first timed op began
	epochs    int64      // handed to the backend over the traced ops
	items     int64
}

// wireCounts is what a traced conn has counted so far.
type wireCounts struct {
	bytesOut, bytesIn, framesOut, framesIn int64
}

func (c *tracedConn) counts() wireCounts {
	return wireCounts{c.bytesOut, c.bytesIn, c.out.frames, c.in.frames}
}

func (w *replay) clients() int { return 1 }

// buildCell generates the cell from the seed: the plan, then 20 flows of
// 10 1000-byte bundles between random distinct nodes, started 500 s
// apart; and runs it once on the sequential executor, the reference the
// other two must match.
func buildCell(seed uint64) (*replayCell, error) {
	c := &replayCell{seed: seed}
	t0 := time.Now()
	// Scenario.Materialize would give the same plan, but its generator
	// compares all pairs at every step and takes over a minute here.
	src, err := dtnsim.Scenario{Mobility: replayMobility, Seed: seed}.StreamMobility()
	if err != nil {
		return nil, err
	}
	if c.sched, err = dtnsim.MaterializeSource(src); err != nil {
		return nil, err
	}
	c.materializeS = time.Since(t0).Seconds()
	t0 = time.Now()
	if err := c.sched.Validate(); err != nil {
		return nil, err
	}
	c.validateS = time.Since(t0).Seconds()

	rng := rand.New(rand.NewSource(int64(seed)))
	c.flows = make([]dtnsim.Flow, 20)
	for i := range c.flows {
		src := rng.Intn(c.sched.Nodes)
		dst := rng.Intn(c.sched.Nodes - 1)
		if dst >= src {
			dst++
		}
		c.flows[i] = dtnsim.Flow{
			Src: dtnsim.NodeID(src), Dst: dtnsim.NodeID(dst),
			Count: 10, Size: 1000, StartAt: dtnsim.Time(500 * i),
		}
	}
	if c.proto, err = dtnsim.ParseProtocolSpec(replayProtocol); err != nil {
		return nil, err
	}
	run, err := runEngine(nil, 0, 0, c.config(), true, nil)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	c.reportBytes = run.series.Len() + run.events.Len()
	c.want = runDigest(run)
	return c, nil
}

// config builds a fresh sequential Config: a protocol instance is one
// run's state.
func (c *replayCell) config() dtnsim.Config {
	return dtnsim.Config{
		Schedule:     c.sched,
		Protocol:     c.proto.New(),
		Flows:        c.flows,
		Seed:         c.seed,
		RunToHorizon: true,
		Bandwidth:    200,
		BufferBytes:  6000,
		DropPolicy:   "droprandom",
		ControlBytes: 8,
	}
}

func (w *replay) setUp(e *env) error {
	w.e = e
	// A smoke run builds the cell once for its nine set-ups.
	if w.replayCell = e.cells[e.seed]; w.replayCell == nil {
		var err error
		if w.replayCell, err = buildCell(e.seed); err != nil {
			return err
		}
		if e.cells != nil {
			e.cells[e.seed] = w.replayCell
		}
	}
	if w.executor != "dist" {
		return nil
	}
	bin, err := goBuild(e, "./cmd/dtnsim-worker")
	if err != nil {
		return err
	}
	w.childBase = cpuSeconds(syscall.RUSAGE_CHILDREN)
	w.pipes = &transport.Pipes{Bin: bin}
	w.be, err = dist.New(dist.Options{
		Workers: 1, Protocol: replayProtocol,
		Dial: func(n int) ([]io.ReadWriteCloser, error) {
			t0 := time.Now()
			conns, err := w.pipes.Dial(n)
			w.spawnS = time.Since(t0).Seconds()
			if err == nil && e.tr != nil {
				w.conn = &tracedConn{ReadWriteCloser: conns[0], tr: e.tr}
				conns[0] = w.conn
			}
			return conns, err
		},
	})
	return err
}

func (w *replay) tearDown() error {
	if w.pipes == nil {
		return nil
	}
	var err error
	if w.be != nil {
		err = w.be.Close()
	}
	// Options.Dial makes the backend's transport a stand-in; the real
	// one, which reaps the worker, is ours to close.
	if perr := w.pipes.Close(); err == nil {
		err = perr
	}
	w.be, w.pipes = nil, nil
	w.childCPUs = cpuSeconds(syscall.RUSAGE_CHILDREN) - w.childBase
	return err
}

// childCPU is the worker's CPU over n timed ops. The worker also ran the
// warm-up ops, which cost what a timed op costs, so they take their share.
func (w *replay) childCPU(n int) float64 {
	return w.childCPUs * float64(n) / float64(n+w.e.warmups)
}

// config is the cell's Config finished for the given executor.
func (w *replay) config(executor string) dtnsim.Config {
	cfg := w.replayCell.config()
	switch executor {
	case "shard":
		cfg.Shards = runtime.GOMAXPROCS(0)
	case "dist":
		cfg.Backend = w.be
	}
	return cfg
}

func (w *replay) op(id, parent int) (*opOut, error) {
	tr := w.e.tracer(parent)
	if tr != nil && w.conn != nil {
		if id == 0 {
			w.wireBase = w.conn.counts()
		}
		// What the untraced warm-up ops left in the meters is not this op's.
		w.conn.read, w.conn.write = busyMeter{}, busyMeter{}
	}
	run, err := runEngine(tr, parent, id, w.config(w.executor), true, w.conn)
	if err != nil {
		return nil, err
	}
	return &opOut{contacts: int64(len(w.sched.Contacts)), payload: run}, nil
}

// runDigest covers everything the executors must agree on: the Result
// and both CSV streams.
func runDigest(run *engineRun) string {
	return digest(resultText(run.res)) + "/" + digest(run.series.Bytes()) + "/" + digest(run.events.Bytes())
}

func (w *replay) verify(id int, out *opOut) error {
	run := out.payload.(*engineRun)
	if err := conserved(run.res, w.flows); err != nil {
		return err
	}
	if out.digest = runDigest(run); out.digest != w.want {
		return fmt.Errorf("%s executor: result/series/events %s differ from the sequential reference %s",
			w.executor, out.digest, w.want)
	}
	out.c = resultCounters(run.res)
	out.c.Samples = run.samples
	w.epochs += run.epochs
	w.items += run.items
	return nil
}

func (w *replay) finish(p *pass) error {
	tr := w.e.tr
	if tr == nil {
		return nil
	}
	tot, err := tr.totals()
	if err != nil {
		return err
	}
	n := float64(p.n())
	engineLayers(p.layer, tot, p.c, p.contacts)
	p.layer["mobility.materialize_s"] = w.materializeS
	p.layer["contact.validate_s"] = w.validateS
	p.layer["report.bytes"] = float64(w.reportBytes)
	bufferProbe(p.layer)

	// Against the other executors: a few untraced ops of each, on the
	// same schedule in the same process.
	other := map[string]string{"shard": "seq", "dist": "shard"}[w.executor]
	if other != "" {
		var times []float64
		for i := 0; i < w.e.reps(5); i++ {
			t0 := time.Now()
			if _, err := runEngine(nil, 0, 0, w.config(other), true, nil); err != nil {
				return err
			}
			times = append(times, time.Since(t0).Seconds())
		}
		switch w.executor {
		case "shard":
			p.layer["core.shard_speedup"] = median(times) / median(p.ref.opS)
		case "dist":
			p.layer["dist.overhead_ratio"] = median(p.ref.opS) / median(times)
		}
	}
	if w.executor != "dist" {
		return nil
	}

	sec := func(name string) float64 {
		if t := tot[name]; t != nil {
			return float64(t.Busy) / 1e9 / n
		}
		return 0
	}
	p.layer["transport.spawn_ms"] = 1e3 * w.spawnS
	p.layer["dist.start_s"] = sec("dist.start")
	p.layer["dist.run_epoch_busy_s"] = sec("dist.run_epoch")
	p.layer["dist.finish_s"] = sec("dist.finish")
	p.layer["dist.occupancy_busy_s"] = sec("dist.node_occupancy")
	p.layer["dist.read_wait_s"] = sec("dist.conn_read")
	p.layer["dist.write_busy_s"] = sec("dist.conn_write")
	if t := tot["dist.run_epoch"]; t != nil {
		p.layer["dist.coord_self_s"] = float64(t.Self) / 1e9 / n
	}
	p.layer["core.epochs"] = float64(w.epochs) / n
	if w.epochs > 0 {
		p.layer["core.items_per_epoch"] = float64(w.items) / float64(w.epochs)
	}
	wire := w.conn.counts()
	p.layer["dist.bytes_out"] = float64(wire.bytesOut-w.wireBase.bytesOut) / n
	p.layer["dist.bytes_in"] = float64(wire.bytesIn-w.wireBase.bytesIn) / n
	p.layer["dist.frames_out"] = float64(wire.framesOut-w.wireBase.framesOut) / n
	p.layer["dist.frames_in"] = float64(wire.framesIn-w.wireBase.framesIn) / n
	p.layer["dist.bytes_per_contact"] = (p.layer["dist.bytes_out"] + p.layer["dist.bytes_in"]) / float64(len(w.sched.Contacts))
	return frameProbe(p.layer, append(w.conn.out.keep, w.conn.in.keep...))
}
