package dist

// Distributed-executor equivalence suite: the proof obligation of
// DESIGN.md §13. Golden-style cells are run sequentially, through the
// in-process sharded executor, and through the distributed backend at
// several worker counts — Results compared field-for-field (floats
// bit-exact) and observer event CSVs byte-for-byte. The crash tests pin
// both failure contracts: with a redial-capable transport a worker
// dying mid-run is revived and its round replayed bit-identically;
// without one (or past the restart budget) the loss surfaces as a
// wrapped ErrWorkerLost instead of a deadlock.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dtnsim/internal/buffer"
	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/dist/frame"
	"dtnsim/internal/mobility"
	"dtnsim/internal/node"
	"dtnsim/internal/protocol"
	"dtnsim/internal/report"
	"dtnsim/internal/sim"
)

// TestMain doubles as the worker executable for the real-process
// tests: re-invoking the test binary with this argument runs Serve
// over stdin/stdout, exactly like cmd/dtnsim-worker. An optional
// second argument injects a crash after that many rounds (per
// process), exercising the respawn path with real processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve-worker" {
		var opts ServeOpts
		if len(os.Args) > 2 {
			n, err := strconv.Atoi(os.Args[2])
			if err != nil {
				fmt.Fprintln(os.Stderr, "bad fail-rounds arg:", err)
				os.Exit(1)
			}
			opts.FailAfterRounds = n
		}
		if err := ServeWith(os.Stdin, os.Stdout, opts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type distCell struct {
	name   string
	proto  string
	mob    string
	flows  []core.Flow
	txTime float64
	// The resource model (DESIGN.md §9); zero values leave it off.
	bandwidth    float64
	bufferBytes  int64
	dropPolicy   string
	controlBytes float64
}

// distCells mirrors the golden grid's mobility × workload spread:
// a fixed trace with two flows sharing a source, an RWP derivative,
// the interval substrate with a shorter transmission time, and a
// resource-constrained cell — sized bundles from staggered flows over
// byte-budgeted contacts into byte-bounded buffers with random drops —
// where stores are non-empty, evict, and the i-list keeps growing, so
// every section of a node's state changes on the wire.
var distCells = []distCell{
	{
		name:  "trace",
		proto: "immunity",
		mob:   "cambridge:seed=7",
		flows: []core.Flow{
			{Src: 0, Dst: 7, Count: 25},
			{Src: 0, Dst: 3, Count: 10, StartAt: 5000},
		},
		txTime: 100,
	},
	{
		name:   "rwp",
		proto:  "cumimmunity",
		mob:    "subscriber:seed=7",
		flows:  []core.Flow{{Src: 1, Dst: 5, Count: 30}},
		txTime: 100,
	},
	{
		name:   "interval",
		proto:  "ecttl",
		mob:    "interval:max=400,seed=7",
		flows:  []core.Flow{{Src: 0, Dst: 7, Count: 20}},
		txTime: 25,
	},
	loadedCell,
}

var loadedCell = distCell{
	name:  "loaded",
	proto: "immunity",
	mob:   "subscriber:seed=7",
	flows: []core.Flow{
		{Src: 1, Dst: 5, Count: 8, Size: 1000},
		{Src: 2, Dst: 9, Count: 8, Size: 1000, StartAt: 2000},
		{Src: 3, Dst: 1, Count: 8, Size: 1000, StartAt: 4000},
		{Src: 9, Dst: 4, Count: 8, Size: 1000, StartAt: 6000},
		{Src: 1, Dst: 7, Count: 8, Size: 1000, StartAt: 8000},
	},
	txTime:       100,
	bandwidth:    20,
	bufferBytes:  4000,
	dropPolicy:   "droprandom",
	controlBytes: 8,
}

// cellConfig builds a cell's run config; streamed selects the pull
// source form the sharded loop natively consumes.
func cellConfig(t testing.TB, c distCell, streamed bool) core.Config {
	t.Helper()
	src, err := mobility.Parse(c.mob)
	if err != nil {
		t.Fatalf("mobility spec %q: %v", c.mob, err)
	}
	fac, err := protocol.Parse(c.proto)
	if err != nil {
		t.Fatalf("protocol spec %q: %v", c.proto, err)
	}
	cfg := core.Config{
		Protocol:     fac.New(),
		Flows:        c.flows,
		TxTime:       c.txTime,
		Seed:         2012,
		RunToHorizon: true,
		Bandwidth:    c.bandwidth,
		BufferBytes:  c.bufferBytes,
		DropPolicy:   c.dropPolicy,
		ControlBytes: c.controlBytes,
	}
	stream, err := src.Stream(7)
	if err != nil {
		t.Fatalf("stream %q: %v", c.mob, err)
	}
	if streamed {
		cfg.Source = stream
	} else if cfg.Schedule, err = contact.Materialize(stream); err != nil {
		t.Fatalf("materialize %q: %v", c.mob, err)
	}
	return cfg
}

// inProcWorkers serves worker connections with in-process ServeWith
// goroutines over synchronous pipes — the Dial/Redial seam the
// white-box tests exercise the full coordinator↔worker protocol
// through without spawning processes. failAfter[i] > 0 injects a
// crash: worker i drops its connection before replying to its
// failAfter[i]-th round — on its first session only, or on every
// session (including redialed replacements) when failEvery is set.
type inProcWorkers struct {
	failAfter map[int]int
	failEvery bool

	mu       sync.Mutex
	sessions map[int]int
}

func newInProcWorkers(failAfter map[int]int) *inProcWorkers {
	return &inProcWorkers{failAfter: failAfter, sessions: make(map[int]int)}
}

func (p *inProcWorkers) dialOne(i int) io.ReadWriteCloser {
	p.mu.Lock()
	session := p.sessions[i]
	p.sessions[i]++
	fail := 0
	if p.failEvery || session == 0 {
		fail = p.failAfter[i]
	}
	p.mu.Unlock()
	toWorkerR, toWorkerW := io.Pipe()
	fromWorkerR, fromWorkerW := io.Pipe()
	go func() {
		err := ServeWith(toWorkerR, fromWorkerW, ServeOpts{FailAfterRounds: fail})
		// Unblock the coordinator's pending reads and fail its
		// future writes, like a dead process's pipes would.
		if err != nil {
			fromWorkerW.CloseWithError(err)
			toWorkerR.CloseWithError(err)
			return
		}
		fromWorkerW.Close()
		toWorkerR.Close()
	}()
	return struct {
		io.Reader
		io.WriteCloser
	}{fromWorkerR, toWorkerW}
}

func (p *inProcWorkers) dial(n int) ([]io.ReadWriteCloser, error) {
	conns := make([]io.ReadWriteCloser, n)
	for i := range conns {
		conns[i] = p.dialOne(i)
	}
	return conns, nil
}

func (p *inProcWorkers) redial(i int) (io.ReadWriteCloser, error) { return p.dialOne(i), nil }

// dialInProcess is the redial-less legacy seam: a backend built on it
// cannot recover lost workers, which the crash-contract test relies
// on.
func dialInProcess(failAfter map[int]int) func(n int) ([]io.ReadWriteCloser, error) {
	return newInProcWorkers(failAfter).dial
}

// runCell runs one cell and captures its Result plus event CSV.
func runCell(t testing.TB, cfg core.Config) (*core.Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	st := report.NewStream(&buf, true)
	cfg.Observers = append(cfg.Observers, st)
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("stream write: %v", err)
	}
	return res, buf.Bytes()
}

// runCellDist runs one cell through a distributed backend.
func runCellDist(t testing.TB, c distCell, opt Options) (*core.Result, []byte) {
	t.Helper()
	if opt.Dial == nil {
		opt.Dial = dialInProcess(nil)
	}
	if opt.Protocol == "" {
		opt.Protocol = c.proto
	}
	b, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer b.Close()
	cfg := cellConfig(t, c, true)
	cfg.Backend = b
	return runCell(t, cfg)
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestDistWorkerCountInvariance is the tentpole proof: for every cell,
// the distributed backend at N ∈ {1, 2, 4} workers produces a Result
// and event CSV byte-identical to the sequential engine and to the
// in-process sharded executor. Small round windows force multi-round
// epochs, so state shipping and re-restoration are exercised hard.
func TestDistWorkerCountInvariance(t *testing.T) {
	for _, c := range distCells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			seqRes, seqCSV := runCell(t, cellConfig(t, c, false))
			shCfg := cellConfig(t, c, true)
			shCfg.Shards = 4
			shRes, shCSV := runCell(t, shCfg)
			if !reflect.DeepEqual(seqRes, shRes) {
				t.Fatalf("sharded (K=4) Result diverged from sequential")
			}
			if !bytes.Equal(seqCSV, shCSV) {
				t.Fatalf("sharded (K=4) event CSV diverged (byte %d)", firstDiff(seqCSV, shCSV))
			}
			for _, workers := range []int{1, 2, 4} {
				res, csv := runCellDist(t, c, Options{Workers: workers, RoundItems: 32})
				if !reflect.DeepEqual(seqRes, res) {
					t.Errorf("N=%d: Result diverged from sequential\n got: %+v\nwant: %+v",
						workers, res, seqRes)
				}
				if !bytes.Equal(seqCSV, csv) {
					t.Errorf("N=%d: event CSV diverged from sequential (first diff at byte %d)",
						workers, firstDiff(seqCSV, csv))
				}
			}
		})
	}
}

// TestDistGoldenGrid runs the full builtin-protocol grid over the
// cells' mobilities at N=2 — the distributed arm of the golden
// equivalence suite.
func TestDistGoldenGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed golden grid is slow")
	}
	// P-Q with anti-packets rides along: the one configuration where a
	// node can hold a copy its own i-list vaccinates, so store and Ext
	// patches must round-trip a state only a full purge scan resolves.
	specs := append(protocol.BuiltinSpecs(), "pq:p=1,q=1,anti", "pq:p=0.7,q=0.5,anti")
	for _, protoSpec := range specs {
		for _, base := range distCells {
			c := base
			c.proto = protoSpec
			seqRes, _ := runCell(t, cellConfig(t, c, false))
			res, _ := runCellDist(t, c, Options{Workers: 2})
			if !reflect.DeepEqual(seqRes, res) {
				t.Errorf("%s|%s: distributed (N=2) Result diverged from sequential",
					protoSpec, c.name)
			}
		}
	}
}

// TestDistWorkerCrash is the satellite obligation: a worker dying
// mid-run (here: dropping its connection before replying to its second
// round) must surface as an error wrapping ErrWorkerLost — promptly,
// not as a deadlock — and Close must still tear the backend down.
func TestDistWorkerCrash(t *testing.T) {
	for _, crashWorker := range []int{0, 1} {
		b, err := New(Options{
			Workers:    2,
			Protocol:   distCells[0].proto,
			RoundItems: 8,
			Dial:       dialInProcess(map[int]int{crashWorker: 2}),
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		cfg := cellConfig(t, distCells[0], true)
		cfg.Backend = b
		_, err = core.Run(cfg)
		if !errors.Is(err, ErrWorkerLost) {
			t.Errorf("crash of worker %d: Run error = %v, want ErrWorkerLost", crashWorker, err)
		}
		if err := b.Close(); err != nil {
			t.Errorf("Close after crash: %v", err)
		}
	}
}

// TestDistWorkerLossReplay is the tentpole recovery proof: a worker
// dying mid-run on a redial-capable transport is replaced and its
// in-flight round replayed from the coordinator's authoritative
// states, completing the run with Results and event CSVs
// byte-identical to the sequential engine. Kill rounds are drawn from
// a seeded RNG (plus the first round, the boundary case) and both
// workers take turns dying. Run under -race in CI.
func TestDistWorkerLossReplay(t *testing.T) {
	rng := sim.NewRNG(2012)
	killRounds := []int{1, 2 + rng.IntN(8), 2 + rng.IntN(20)}
	for _, c := range []distCell{distCells[0], loadedCell} {
		seqRes, seqCSV := runCell(t, cellConfig(t, c, false))
		prefix := ""
		if c.name != distCells[0].name {
			prefix = c.name + "/"
		}
		for _, kill := range killRounds {
			for _, victim := range []int{0, 1} {
				t.Run(fmt.Sprintf("%sround%d/worker%d", prefix, kill, victim), func(t *testing.T) {
					p := newInProcWorkers(map[int]int{victim: kill})
					b, err := New(Options{
						Workers:    2,
						Protocol:   c.proto,
						RoundItems: 8,
						Dial:       p.dial,
						Redial:     p.redial,
					})
					if err != nil {
						t.Fatalf("New: %v", err)
					}
					defer b.Close()
					budget := b.restarts
					cfg := cellConfig(t, c, true)
					cfg.Backend = b
					res, csv := runCell(t, cfg)
					if b.restarts != budget-1 {
						t.Errorf("restart budget went %d -> %d, want exactly one revival", budget, b.restarts)
					}
					if !reflect.DeepEqual(seqRes, res) {
						t.Errorf("Result diverged from sequential after worker-loss replay")
					}
					if !bytes.Equal(seqCSV, csv) {
						t.Errorf("event CSV diverged after worker-loss replay (byte %d)", firstDiff(seqCSV, csv))
					}
				})
			}
		}
	}
}

// TestDistRepeatedWorkerLoss crashes every session of one worker —
// including the redialed replacements — every few rounds. Each
// replacement makes progress before dying, so with budget the run
// still completes bit-identically: recovery is not a one-shot. The
// loaded cell repeats it over states whose every section is in play.
func TestDistRepeatedWorkerLoss(t *testing.T) {
	repeatedWorkerLoss(t, distCells[0])
	t.Run(loadedCell.name, func(t *testing.T) { repeatedWorkerLoss(t, loadedCell) })
}

func repeatedWorkerLoss(t *testing.T, c distCell) {
	seqRes, seqCSV := runCell(t, cellConfig(t, c, false))
	p := newInProcWorkers(map[int]int{1: 4})
	p.failEvery = true
	b, err := New(Options{
		Workers:     2,
		Protocol:    c.proto,
		RoundItems:  16,
		MaxRestarts: 1000,
		Dial:        p.dial,
		Redial:      p.redial,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer b.Close()
	budget := b.restarts
	cfg := cellConfig(t, c, true)
	cfg.Backend = b
	res, csv := runCell(t, cfg)
	if revived := budget - b.restarts; revived < 2 {
		t.Errorf("only %d revivals; the cell should need several", revived)
	}
	if !reflect.DeepEqual(seqRes, res) {
		t.Errorf("Result diverged from sequential under repeated worker loss")
	}
	if !bytes.Equal(seqCSV, csv) {
		t.Errorf("event CSV diverged under repeated worker loss (byte %d)", firstDiff(seqCSV, csv))
	}
}

// TestDistRestartBudgetExhausted pins the recovery bound: a worker
// that dies on every session before completing a round burns the
// restart budget and the loss surfaces as ErrWorkerLost. A negative
// MaxRestarts disables recovery outright, failing on the first loss
// without consuming a redial.
func TestDistRestartBudgetExhausted(t *testing.T) {
	for _, maxRestarts := range []int{2, -1} {
		p := newInProcWorkers(map[int]int{1: 1})
		p.failEvery = true
		b, err := New(Options{
			Workers:     2,
			Protocol:    distCells[0].proto,
			RoundItems:  8,
			MaxRestarts: maxRestarts,
			Dial:        p.dial,
			Redial:      p.redial,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		cfg := cellConfig(t, distCells[0], true)
		cfg.Backend = b
		_, err = core.Run(cfg)
		if !errors.Is(err, ErrWorkerLost) {
			t.Errorf("MaxRestarts=%d: Run error = %v, want ErrWorkerLost", maxRestarts, err)
		}
		if maxRestarts < 0 {
			p.mu.Lock()
			if sessions := p.sessions[1]; sessions != 1 {
				t.Errorf("disabled recovery redialed anyway: %d sessions", sessions)
			}
			p.mu.Unlock()
		}
		if err := b.Close(); err != nil {
			t.Errorf("Close after exhausted budget: %v", err)
		}
	}
}

// countingConn counts the bytes that cross a worker connection in each
// direction, for the delta wire-savings assertion.
type countingConn struct {
	io.ReadWriteCloser
	out, in *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	c.out.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	c.in.Add(int64(n))
	return n, err
}

// TestDistDeltaEqualsFull is the delta-shipping proof obligation:
// the same cells with delta shipping (default) and with
// FullSnapshots forced produce byte-identical Results and CSVs —
// applying cache references and patches is observationally equal to
// restoring and installing full snapshots — while the delta path puts
// strictly fewer bytes on the wire in each direction. FullSnapshots
// forces both: it is the reference only if neither side shortcuts.
func TestDistDeltaEqualsFull(t *testing.T) {
	for _, c := range distCells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			seqRes, seqCSV := runCell(t, cellConfig(t, c, false))
			var out, in [2]atomic.Int64
			for mode, full := range []bool{false, true} {
				p := newInProcWorkers(nil)
				mode := mode
				dial := func(n int) ([]io.ReadWriteCloser, error) {
					conns, err := p.dial(n)
					for i := range conns {
						conns[i] = countingConn{ReadWriteCloser: conns[i], out: &out[mode], in: &in[mode]}
					}
					return conns, err
				}
				b, err := New(Options{
					Workers:       2,
					Protocol:      c.proto,
					RoundItems:    32,
					FullSnapshots: full,
					Dial:          dial,
				})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				cfg := cellConfig(t, c, true)
				cfg.Backend = b
				res, csv := runCell(t, cfg)
				if err := b.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
				if !reflect.DeepEqual(seqRes, res) {
					t.Errorf("FullSnapshots=%v: Result diverged from sequential", full)
				}
				if !bytes.Equal(seqCSV, csv) {
					t.Errorf("FullSnapshots=%v: event CSV diverged (byte %d)", full, firstDiff(seqCSV, csv))
				}
			}
			for _, dir := range []struct {
				name        string
				delta, full int64
			}{
				{"coordinator->worker", out[0].Load(), out[1].Load()},
				{"worker->coordinator", in[0].Load(), in[1].Load()},
			} {
				if dir.delta >= dir.full {
					t.Errorf("%s: delta shipping moved %d bytes, full snapshots %d — no wire savings",
						dir.name, dir.delta, dir.full)
				}
				t.Logf("%s bytes: delta %d, full %d (%.2fx)", dir.name, dir.delta, dir.full,
					float64(dir.full)/float64(dir.delta))
			}
		})
	}
}

// TestDistRealWorkerProcessRespawn exercises the pipe transport's
// respawn path with real processes: every incarnation of worker 1
// crashes after a few rounds, each respawned replacement resumes from
// replayed authoritative state, and the run still matches the
// sequential engine byte-for-byte.
func TestDistRealWorkerProcessRespawn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawning worker processes is slow")
	}
	c := distCells[0]
	seqRes, seqCSV := runCell(t, cellConfig(t, c, false))
	bin, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	b, err := New(Options{
		Workers:     2,
		Protocol:    c.proto,
		RoundItems:  16,
		MaxRestarts: 1000,
		WorkerBin:   bin,
		WorkerArgs:  []string{"serve-worker", "6"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	budget := b.restarts
	cfg := cellConfig(t, c, true)
	cfg.Backend = b
	res, csv := runCell(t, cfg)
	if err := b.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if revived := budget - b.restarts; revived < 1 {
		t.Errorf("no respawns happened; the fault injection should force several")
	}
	if !reflect.DeepEqual(seqRes, res) {
		t.Errorf("respawned processes: Result diverged from sequential")
	}
	if !bytes.Equal(seqCSV, csv) {
		t.Errorf("respawned processes: event CSV diverged (byte %d)", firstDiff(seqCSV, csv))
	}
}

// TestDistRealWorkerProcesses runs a cell over actual worker processes
// (the test binary re-invoked as a Serve loop), pinning the exec
// plumbing: pipes, binary discovery via WorkerBin, argument passing,
// and clean shutdown.
func TestDistRealWorkerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawning worker processes is slow")
	}
	c := distCells[0]
	seqRes, seqCSV := runCell(t, cellConfig(t, c, false))
	bin, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	b, err := New(Options{
		Workers:    2,
		Protocol:   c.proto,
		WorkerBin:  bin,
		WorkerArgs: []string{"serve-worker"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cfg := cellConfig(t, c, true)
	cfg.Backend = b
	res, csv := runCell(t, cfg)
	if err := b.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if !reflect.DeepEqual(seqRes, res) {
		t.Errorf("real processes: Result diverged from sequential")
	}
	if !bytes.Equal(seqCSV, csv) {
		t.Errorf("real processes: event CSV diverged (byte %d)", firstDiff(seqCSV, csv))
	}
}

// TestDistUnknownProtocolSpec pins Start's cross-check: a spec that
// resolves to a different protocol than the run config's instance is
// rejected before any item ships.
func TestDistUnknownProtocolSpec(t *testing.T) {
	b, err := New(Options{Workers: 1, Protocol: "pure", Dial: dialInProcess(nil)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer b.Close()
	cfg := cellConfig(t, distCells[0], true) // protocol "immunity"
	cfg.Backend = b
	if _, err := core.Run(cfg); err == nil {
		t.Fatal("mismatched protocol spec accepted")
	}
}

// TestSnapshotNodeRoundTrip pins the node codec on a node with every
// state dimension populated: encounter history, control load, pinned and relay copies, Received set, Ext state.
func TestSnapshotNodeRoundTrip(t *testing.T) {
	fac, err := protocol.Parse("immunity")
	if err != nil {
		t.Fatal(err)
	}
	proto := fac.New()
	n := node.New(3, 10)
	var slab protocol.Slab
	slab.Size(4)
	proto.Init(n, &slab)
	n.ObserveEncounter(100)
	n.ObserveEncounter(350)
	n.Store.SetControlLoad(0.25)
	mk := func(src contact.NodeID, seq int, dst contact.NodeID, pinned bool, expiry sim.Time) {
		cp := &bundle.Copy{
			Bundle: &bundle.Bundle{
				ID:        bundle.ID{Src: src, Seq: seq},
				Dst:       dst,
				CreatedAt: 42.5,
				Meta:      bundle.Meta{Size: 1024},
				FirstSeq:  seq,
			},
			EC:       2,
			Expiry:   expiry,
			StoredAt: 43,
			Pinned:   pinned,
		}
		if err := n.Store.Put(cp); err != nil {
			t.Fatalf("put %v: %v", cp.Bundle.ID, err)
		}
	}
	mk(3, 0, 7, true, sim.Infinity)
	mk(1, 2, 5, false, 900.25)
	n.Received.Add(bundle.ID{Src: 0, Seq: 4})
	var st frame.NodeState
	if err := snapshotInto(&st, n); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// Round-trip through the frame codec too: the state must survive
	// the wire bit-exactly.
	enc, err := frame.Encode(&frame.Msg{Round: &frame.Round{States: []frame.NodeState{st}}})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := frame.Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	st2 := dec.Round.States[0]
	n2 := node.New(3, 10)
	if err := restoreInto(n2, &st2); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// Into storage that held another node's state: none of it may show.
	again := frame.NodeState{LastInterval: 99, Omit: frame.OmitExt,
		Copies: make([]frame.Copy, 5), Received: make([]frame.IDPair, 5)}
	if err := snapshotInto(&again, n2); err != nil {
		t.Fatalf("re-snapshot: %v", err)
	}
	if !reflect.DeepEqual(st, again) {
		t.Errorf("node state did not survive the round trip:\n got %+v\nwant %+v", again, st)
	}
	if n2.Store.Len() != 2 || n2.Store.ControlLoad() != 0.25 {
		t.Errorf("restored store: len=%d load=%v", n2.Store.Len(), n2.Store.ControlLoad())
	}
	if n2.LastEncounterStart != 350 || n2.LastInterval != 250 {
		t.Errorf("restored encounter history: start=%v interval=%v",
			n2.LastEncounterStart, n2.LastInterval)
	}
}

// TestSlabCumulativeStateRoundTrip: a cumulative-immunity state that
// lives in a reused protocol.Slab holds what its deliveries taught it,
// and snapshots, restores and snapshots again to the identical frame
// bytes, restored into a fresh node or in place. The slab first serves
// a larger population whose destination grows two long flow tables; the
// population then shrinks and is initialized again, so the state under
// test sits in storage an earlier population grew. Its node learns three
// flows: one whose sequence block starts at 6 (FirstSeq) and arrives out
// of order, one with a gap whose table is inserted ahead of it, and one
// it learns only from delivery feedback as a sender.
func TestSlabCumulativeStateRoundTrip(t *testing.T) {
	fac, err := protocol.Parse("cumimmunity")
	if err != nil {
		t.Fatal(err)
	}
	proto := fac.New()
	deliver := func(dst, sender *node.Node, src contact.NodeID, seq int, to contact.NodeID, first int) {
		t.Helper()
		b := &bundle.Bundle{ID: bundle.ID{Src: src, Seq: seq}, Dst: to, FirstSeq: first}
		if err := sender.Store.Put(&bundle.Copy{Bundle: b, Expiry: sim.Infinity}); err != nil {
			t.Fatal(err)
		}
		dst.Received.Add(b.ID)
		proto.OnDelivered(dst, sender, b.ID, 0)
	}
	var slab protocol.Slab
	initAll := func(pop []*node.Node) {
		slab.Size(len(pop))
		for _, n := range pop {
			proto.Init(n, &slab)
		}
	}
	pop := node.NewPopulation(nil, 4, 20)
	initAll(pop)
	for seq := 1; seq <= 12; seq++ {
		deliver(pop[2], pop[0], 5, seq, 2, 1)
		deliver(pop[2], pop[0], 6, seq, 2, 1)
	}
	pop = node.NewPopulation(pop, 3, 20)
	initAll(pop)
	dst := pop[2]
	deliver(dst, pop[1], 1, 8, 2, 6)
	deliver(dst, pop[1], 1, 6, 2, 6)
	deliver(dst, pop[1], 0, 1, 2, 1)
	deliver(dst, pop[1], 0, 3, 2, 1)
	deliver(pop[0], dst, 3, 1, 0, 1)

	snap := func(n *node.Node) []byte {
		t.Helper()
		var st frame.NodeState
		if err := snapshotInto(&st, n); err != nil {
			t.Fatal(err)
		}
		b, err := frame.Encode(&frame.Msg{Round: &frame.Round{States: []frame.NodeState{st}}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want := snap(dst)
	dec, err := frame.Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	st := &dec.Round.States[0]
	wantExt := protocol.ExtState{
		Kind: protocol.ExtCumulative,
		Acks: []protocol.FlowCount{{Src: 0, Dst: 2, N: 1}, {Src: 1, Dst: 2, N: 6}, {Src: 3, Dst: 0, N: 1}},
		Base: []protocol.FlowCount{{Src: 0, Dst: 2, N: 1}, {Src: 1, Dst: 2, N: 6}},
		Rcvd: []protocol.FlowSeqs{{Src: 0, Dst: 2, Seqs: []int{1, 3}}, {Src: 1, Dst: 2, Seqs: []int{6, 8}}},
	}
	if !reflect.DeepEqual(st.Ext, wantExt) {
		t.Fatalf("slab-backed state = %+v, want %+v", st.Ext, wantExt)
	}
	fresh := node.New(2, 20)
	if err := restoreInto(fresh, st); err != nil {
		t.Fatal(err)
	}
	if got := snap(fresh); !bytes.Equal(got, want) {
		t.Errorf("restored into a fresh node, the state snapshots differently (first diff at byte %d)", firstDiff(got, want))
	}
	ext := dst.Ext
	if err := protocol.RestoreExt(dst, st.Ext); err != nil {
		t.Fatal(err)
	}
	if dst.Ext != ext {
		t.Error("restoring over a slab-backed state moved it out of the slab")
	}
	if got := snap(dst); !bytes.Equal(got, want) {
		t.Errorf("restored in place, the state snapshots differently (first diff at byte %d)", firstDiff(got, want))
	}
}

// TestRestoreNamesDuplicateCopy: a snapshot holding one bundle twice is
// corrupt, and restoreInto names that bundle. The name comes from the
// copy restoreInto built from the wire, never from the store, whose
// slot at that position holds another copy (here seq 5, the duplicate's
// successor in ID order).
func TestRestoreNamesDuplicateCopy(t *testing.T) {
	inf := float64(sim.Infinity)
	st := frame.NodeState{ID: 3, Copies: []frame.Copy{
		{Src: 2, Seq: 1, Dst: 7, Expiry: inf},
		{Src: 2, Seq: 3, Dst: 7, Expiry: inf},
		{Src: 2, Seq: 5, Dst: 7, Expiry: inf},
		{Src: 2, Seq: 3, Dst: 7, Expiry: inf},
	}}
	err := restoreInto(node.New(3, 10), &st)
	if !errors.Is(err, buffer.ErrDuplicate) || !strings.Contains(err.Error(), "b(2:3)") {
		t.Fatalf("restore of a duplicated copy: err = %v, want ErrDuplicate naming b(2:3)", err)
	}
}

// tapConn sits on one worker connection and hands every frame, decoded,
// to onSend (coordinator→worker) or onRecv (worker→coordinator) before
// re-encoding it and passing it on — so a hook can watch the protocol
// or play a peer that breaks it. It relies on the coordinator writing
// each frame with one Write.
type tapConn struct {
	io.ReadWriteCloser
	onSend, onRecv func(*frame.Msg)
	r              frame.Reader
	pending        []byte
}

func newTapConn(rwc io.ReadWriteCloser, onSend, onRecv func(*frame.Msg)) *tapConn {
	return &tapConn{ReadWriteCloser: rwc, onSend: onSend, onRecv: onRecv, r: frame.Reader{R: rwc}}
}

func (c *tapConn) Write(p []byte) (int, error) {
	m, err := frame.Decode(p)
	if err != nil {
		return 0, err
	}
	if c.onSend != nil {
		c.onSend(m)
	}
	b, err := frame.Encode(m)
	if err != nil {
		return 0, err
	}
	if _, err := c.ReadWriteCloser.Write(b); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *tapConn) Read(p []byte) (int, error) {
	if len(c.pending) == 0 {
		m, err := c.r.Read()
		if err != nil {
			return 0, err
		}
		if c.onRecv != nil {
			c.onRecv(m)
		}
		if c.pending, err = frame.Encode(m); err != nil {
			return 0, err
		}
	}
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

// TestDistMigrationPatchBase proves a patch is always read against the
// base the two sides really share when a node moves between workers:
// worker A reports node n, n migrates to B (full state shipped) and
// changes there, then comes back to A — which must forget what it once
// reported and patch against what it was just shipped. The first pass
// finds such a bounce in the frames of a 3-worker run of the loaded
// cell and checks A's reply on n's return is a patch; the second kills
// A between the two legs, so the replacement holds no base at all when
// n returns. Both must match the sequential engine bit for bit — a
// section omitted against the wrong base would leave the coordinator
// with B's version of it.
func TestDistMigrationPatchBase(t *testing.T) {
	c := loadedCell
	seqRes, seqCSV := runCell(t, cellConfig(t, c, false))

	// bounce is what the frames showed of one node's travels.
	type visit struct {
		worker  int
		round   uint64
		shipped bool // arrived as a full state, not a cache ref or pristine
		omit    byte // of the reply
	}
	run := func(fail map[int]int) (visits map[int][]visit, rounds [][]uint64, restarts int) {
		visits = make(map[int][]visit)
		rounds = make([][]uint64, 3) // rounds[w] = Seq of each Round worker w was sent, in order
		var mu sync.Mutex
		p := newInProcWorkers(fail)
		tap := func(w int, rwc io.ReadWriteCloser) io.ReadWriteCloser {
			shipped := map[int]bool{}
			return newTapConn(rwc, func(m *frame.Msg) {
				if m.Round == nil {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				rounds[w] = append(rounds[w], m.Round.Seq)
				clear(shipped)
				for i := range m.Round.States {
					shipped[m.Round.States[i].ID] = true
				}
			}, func(m *frame.Msg) {
				if m.Effects == nil {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				for i := range m.Effects.States {
					st := &m.Effects.States[i]
					visits[st.ID] = append(visits[st.ID], visit{w, m.Effects.Seq, shipped[st.ID], st.Omit})
				}
			})
		}
		b, err := New(Options{
			Workers: 3, Protocol: c.proto, RoundItems: 8,
			Dial: func(n int) ([]io.ReadWriteCloser, error) {
				conns, err := p.dial(n)
				for w := range conns {
					conns[w] = tap(w, conns[w])
				}
				return conns, err
			},
			Redial: func(w int) (io.ReadWriteCloser, error) {
				rwc, err := p.redial(w)
				return tap(w, rwc), err
			},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer b.Close()
		budget := b.restarts
		cfg := cellConfig(t, c, true)
		cfg.Backend = b
		res, csv := runCell(t, cfg)
		if !reflect.DeepEqual(seqRes, res) {
			t.Errorf("fail=%v: Result diverged from sequential", fail)
		}
		if !bytes.Equal(seqCSV, csv) {
			t.Errorf("fail=%v: event CSV diverged (byte %d)", fail, firstDiff(seqCSV, csv))
		}
		return visits, rounds, budget - b.restarts
	}

	// findBounce returns a node's A, B, A visits: reported by A, then
	// shipped to and reported by another worker, then shipped back to A,
	// whose reply is a patch.
	findBounce := func(visits map[int][]visit) (node int, first, away, back visit, ok bool) {
		for node = 0; node < 12; node++ {
			vs := visits[node]
			for i := 0; i+2 < len(vs); i++ {
				first, away, back = vs[i], vs[i+1], vs[i+2]
				if away.worker != first.worker && away.shipped &&
					back.worker == first.worker && back.shipped && back.omit != 0 {
					return node, first, away, back, true
				}
			}
		}
		return 0, visit{}, visit{}, visit{}, false
	}

	visits, rounds, restarts := run(nil)
	node, first, away, back, ok := findBounce(visits)
	if !ok {
		t.Fatal("no node bounced A→B→A with a patch on its return; the cell no longer exercises migration")
	}
	if restarts != 0 {
		t.Fatalf("%d revivals in the undisturbed pass", restarts)
	}
	t.Logf("node %d: worker %d round %d → worker %d round %d → worker %d round %d, reply omits %03b",
		node, first.worker, first.round, away.worker, away.round, back.worker, back.round, back.omit)

	// Kill A on the first Round it is sent after B reported the node —
	// the round of the return at the latest.
	kill := 0
	for i, seq := range rounds[first.worker] {
		if seq > away.round {
			kill = i + 1
			break
		}
	}
	if kill == 0 {
		t.Fatalf("worker %d was sent no round after %d", first.worker, away.round)
	}
	visits, _, restarts = run(map[int]int{first.worker: kill})
	if restarts != 1 {
		t.Errorf("%d revivals, want the one injected between the bounces", restarts)
	}
	var returned *visit
	for i := range visits[node] {
		if v := &visits[node][i]; v.worker == back.worker && v.round == back.round {
			returned = v
		}
	}
	if returned == nil || !returned.shipped {
		t.Fatalf("after the kill, node %d did not return to worker %d as a shipped state in round %d: %+v",
			node, back.worker, back.round, visits[node])
	}
	if returned.omit != back.omit {
		t.Errorf("replacement worker's reply omits %03b, the original omitted %03b: same state in, same patch out",
			returned.omit, back.omit)
	}
}

// TestDistHostilePeer pins what the coordinator makes of a peer that
// breaks the patch protocol, in either direction: the run ends with an
// error that is not ErrWorkerLost, and nothing is replayed — retrying
// corruption would forfeit the determinism contract.
func TestDistHostilePeer(t *testing.T) {
	c := loadedCell
	// once runs fn on frames until it returns true.
	once := func(fn func(*frame.Msg) bool) func(*frame.Msg) {
		done := false
		return func(m *frame.Msg) {
			if !done {
				done = fn(m)
			}
		}
	}
	cases := []struct {
		name           string
		opt            Options
		onSend, onRecv func(*frame.Msg)
		want           string
	}{
		{
			// The first round's nodes are all pristine: the coordinator
			// holds nothing a patch could be read against.
			name: "patch-for-unheld-node",
			onRecv: once(func(m *frame.Msg) bool {
				if m.Effects == nil {
					return false
				}
				m.Effects.States[0].Omit = frame.OmitExt
				return true
			}),
			want: "unsolicited patch",
		},
		{
			name: "unknown-section-bits",
			onRecv: once(func(m *frame.Msg) bool {
				if m.Effects == nil {
					return false
				}
				m.Effects.States[0].Omit = 1 << frame.Sections
				return true
			}),
			want: frame.ErrFrame.Error(),
		},
		{
			// Worker 0's reply claims a node no item of its round touches.
			name: "patch-outside-involved-set",
			onRecv: once(func(m *frame.Msg) bool {
				if m.Effects == nil || m.Effects.Seq < 3 {
					return false
				}
				st := &m.Effects.States[len(m.Effects.States)-1]
				st.ID, st.Omit = 11-st.ID, frame.OmitCopies // 12 nodes: always another one
				return true
			}),
			want: "expected",
		},
		{
			// A coordinator that forbade deltas must not be sent one.
			name: "patch-without-negotiation",
			opt:  Options{FullSnapshots: true},
			onRecv: once(func(m *frame.Msg) bool {
				if m.Effects == nil || m.Effects.Seq < 3 {
					return false
				}
				m.Effects.States[0].Omit = frame.OmitReceived
				return true
			}),
			want: "unsolicited patch",
		},
		{
			// An effect kind no kernel records: merge would skip it and
			// the run "succeed" with the effect missing.
			name: "effect-kind-past-enum",
			onRecv: once(func(m *frame.Msg) bool {
				if m.Effects == nil || len(m.Effects.Items[0].Fx) == 0 {
					return false
				}
				m.Effects.Items[0].Fx[0].Kind = core.EffectStored + 1
				return true
			}),
			want: frame.ErrFrame.Error(),
		},
		{
			// A drop reason outside the enum has no wire code; the byte
			// it encodes as is one the coordinator must not decode.
			name: "drop-reason-past-enum",
			onRecv: once(func(m *frame.Msg) bool {
				if m.Effects == nil || len(m.Effects.Items[0].Fx) == 0 {
					return false
				}
				m.Effects.Items[0].Fx[0].Reason = "martian"
				return true
			}),
			want: frame.ErrFrame.Error(),
		},
		{
			// Bytes that are not a frame where the Hello reply belongs:
			// corruption like any other, surfacing from New.
			name: "handshake-not-a-frame",
			onRecv: once(func(m *frame.Msg) bool {
				*m = frame.Msg{Effects: &frame.Effects{States: []frame.NodeState{{Omit: 1 << frame.Sections}}}}
				return true
			}),
			want: frame.ErrFrame.Error(),
		},
		{
			// The other direction: a Round's states must be complete; the
			// worker refuses, and its Error frame is the run error.
			name: "round-state-omits-section",
			onSend: once(func(m *frame.Msg) bool {
				if m.Round == nil || len(m.Round.States) == 0 {
					return false
				}
				m.Round.States[0].Omit = frame.OmitCopies
				return true
			}),
			want: "omits sections",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newInProcWorkers(nil)
			opt := tc.opt
			opt.Workers, opt.Protocol, opt.RoundItems = 2, c.proto, 8
			opt.Dial = func(n int) ([]io.ReadWriteCloser, error) {
				conns, err := p.dial(n)
				if err == nil {
					conns[0] = newTapConn(conns[0], tc.onSend, tc.onRecv)
				}
				return conns, err
			}
			redials := 0
			opt.Redial = func(i int) (io.ReadWriteCloser, error) {
				redials++
				return p.redial(i)
			}
			b, err := New(opt)
			if err == nil { // a hostile handshake already fails New
				defer b.Close()
				cfg := cellConfig(t, c, true)
				cfg.Backend = b
				_, err = core.Run(cfg)
			}
			if err == nil || errors.Is(err, ErrWorkerLost) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v; want one mentioning %q and not ErrWorkerLost", err, tc.want)
			}
			if redials != 0 {
				t.Errorf("%d revivals: corruption was replayed", redials)
			}
		})
	}
}

// scramble returns s reversed with every element doubled: a wire list
// that is neither ascending nor duplicate-free.
func scramble[T any](s []T) []T {
	out := make([]T, 0, 2*len(s))
	for i := len(s) - 1; i >= 0; i-- {
		out = append(out, s[i], s[i])
	}
	return out
}

// scrambleSets rewrites a wire state's ID sets — the Received set and
// the immunity i-list — reversed and duplicated, and its copies
// reversed (a doubled copy is corrupt and refused, as before).
func scrambleSets(st *frame.NodeState) {
	if st.Omit&frame.OmitReceived == 0 {
		st.Received = scramble(st.Received)
	}
	if st.Omit&frame.OmitExt == 0 {
		st.Ext.IDs = scramble(st.Ext.IDs)
	}
	if st.Omit&frame.OmitCopies == 0 {
		for i, j := 0, len(st.Copies)-1; i < j; i, j = i+1, j-1 {
			st.Copies[i], st.Copies[j] = st.Copies[j], st.Copies[i]
		}
	}
}

// TestDistUnsortedWireSets: node sets are sorted slices searched by
// bisection, so ID lists off the wire must be sorted on the way in,
// never adopted. A peer that ships every Received set and i-list
// reversed and duplicated — in rounds to a worker and in a worker's
// replies alike — is tolerated exactly as before: restoreInto and
// RestoreExt rebuild the same sets, and the run matches the
// sequential engine bit for bit. A mis-ordered slice adopted as a set
// would answer Has wrongly and diverge silently instead.
func TestDistUnsortedWireSets(t *testing.T) {
	fac, err := protocol.Parse("immunity")
	if err != nil {
		t.Fatal(err)
	}
	n := node.New(3, 10)
	var slab protocol.Slab
	slab.Size(4)
	fac.New().Init(n, &slab)
	for seq := 1; seq <= 5; seq++ {
		n.Received.Add(bundle.ID{Src: 1, Seq: seq})
		cp := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 2, Seq: seq}, Dst: 7}, Expiry: sim.Infinity}
		if err := n.Store.Put(cp); err != nil {
			t.Fatal(err)
		}
	}
	var sorted, hostile, got frame.NodeState
	if err := snapshotInto(&sorted, n); err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 4; seq++ {
		sorted.Ext.IDs = append(sorted.Ext.IDs, bundle.ID{Src: 0, Seq: seq})
	}
	if err := snapshotInto(&hostile, n); err != nil {
		t.Fatal(err)
	}
	hostile.Ext.IDs = append(hostile.Ext.IDs, sorted.Ext.IDs...)
	scrambleSets(&hostile)
	restored := node.New(3, 10)
	if err := restoreInto(restored, &hostile); err != nil {
		t.Fatalf("restore of scrambled sets: %v", err)
	}
	if err := snapshotInto(&got, restored); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sorted) {
		t.Errorf("scrambled wire sets restored to\n%+v\nwant the sorted state\n%+v", got, sorted)
	}

	c := loadedCell
	seqRes, seqCSV := runCell(t, cellConfig(t, c, false))
	scrambleAll := func(states []frame.NodeState) {
		for i := range states {
			scrambleSets(&states[i])
		}
	}
	p := newInProcWorkers(nil)
	res, csv := runCellDist(t, c, Options{
		Workers: 2, RoundItems: 8,
		Dial: func(n int) ([]io.ReadWriteCloser, error) {
			conns, err := p.dial(n)
			if err == nil {
				conns[0] = newTapConn(conns[0],
					func(m *frame.Msg) {
						if m.Round != nil {
							scrambleAll(m.Round.States)
						}
					},
					func(m *frame.Msg) {
						if m.Effects != nil {
							scrambleAll(m.Effects.States)
						}
					})
			}
			return conns, err
		},
	})
	if !reflect.DeepEqual(seqRes, res) {
		t.Errorf("Result diverged from sequential under scrambled wire sets")
	}
	if !bytes.Equal(seqCSV, csv) {
		t.Errorf("event CSV diverged under scrambled wire sets (byte %d)", firstDiff(seqCSV, csv))
	}
}

// slotWatch fails the test if a node's authoritative state is ever
// replaced rather than patched.
type slotWatch struct {
	*Backend
	t     *testing.T
	slots []*frame.NodeState
}

func (w *slotWatch) RunEpoch(ep *core.Epoch) error {
	err := w.Backend.RunEpoch(ep)
	if w.slots == nil {
		w.slots = make([]*frame.NodeState, len(w.states))
	}
	for i, st := range w.states {
		if w.slots[i] != nil && st != w.slots[i] {
			w.t.Errorf("node %d: authoritative state moved from %p to %p", i, w.slots[i], st)
		}
		w.slots[i] = st
	}
	return err
}

// TestDistStateSlotsPersist pins the coordinator's memory shape: one
// frame.NodeState per touched node for the whole run, patched in place.
// Installing pointers into each reply's decoded array instead kept
// every such array alive for as long as any one node of it was current.
func TestDistStateSlotsPersist(t *testing.T) {
	c := loadedCell
	seqRes, _ := runCell(t, cellConfig(t, c, false))
	b, err := New(Options{Workers: 2, Protocol: c.proto, RoundItems: 8, Dial: dialInProcess(nil)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer b.Close()
	w := &slotWatch{Backend: b, t: t}
	cfg := cellConfig(t, c, true)
	cfg.Backend = w
	res, _ := runCell(t, cfg)
	if !reflect.DeepEqual(seqRes, res) {
		t.Errorf("Result diverged from sequential")
	}
	held := 0
	for _, st := range w.slots {
		if st != nil {
			held++
		}
	}
	if held == 0 || held > len(res.FinalBuffered) {
		t.Errorf("%d node states held for a population of %d", held, len(res.FinalBuffered))
	}
}

// TestDistBackendReuse runs two runs on one backend, as the daemon's
// worker pool and the benchmark do: the second Init must leave nothing
// of the first run behind on either side — live nodes, versions, or the
// bases patches are cut against.
func TestDistBackendReuse(t *testing.T) {
	c := loadedCell
	seqRes, seqCSV := runCell(t, cellConfig(t, c, false))
	b, err := New(Options{Workers: 2, Protocol: c.proto, RoundItems: 8, Dial: dialInProcess(nil)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer b.Close()
	for run := 1; run <= 2; run++ {
		cfg := cellConfig(t, c, true)
		cfg.Backend = b
		res, csv := runCell(t, cfg)
		if !reflect.DeepEqual(seqRes, res) || !bytes.Equal(seqCSV, csv) {
			t.Errorf("run %d on the same backend diverged from sequential", run)
		}
	}
}
