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
	"net"
	"os"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

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
}

// distCells mirrors the golden grid's mobility × workload spread:
// a fixed trace with two flows sharing a source, an RWP derivative,
// and the interval substrate with a shorter transmission time.
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
	}
	if streamed {
		stream, err := src.Stream(7)
		if err != nil {
			t.Fatalf("stream %q: %v", c.mob, err)
		}
		cfg.Source = stream
	} else {
		sched, err := src.Generate(7)
		if err != nil {
			t.Fatalf("generate %q: %v", c.mob, err)
		}
		cfg.Schedule = sched
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
	for _, protoSpec := range protocol.BuiltinSpecs() {
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
	c := distCells[0]
	seqRes, seqCSV := runCell(t, cellConfig(t, c, false))
	rng := sim.NewRNG(2012)
	killRounds := []int{1, 2 + rng.IntN(8), 2 + rng.IntN(20)}
	for _, kill := range killRounds {
		for _, victim := range []int{0, 1} {
			t.Run(fmt.Sprintf("round%d/worker%d", kill, victim), func(t *testing.T) {
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

// TestDistRepeatedWorkerLoss crashes every session of one worker —
// including the redialed replacements — every few rounds. Each
// replacement makes progress before dying, so with budget the run
// still completes bit-identically: recovery is not a one-shot.
func TestDistRepeatedWorkerLoss(t *testing.T) {
	c := distCells[0]
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

// serveTCPWorkers listens on an ephemeral loopback port and serves
// every accepted connection with an in-process ServeWith goroutine —
// a real dtnsim-worker -listen in miniature. failFirst > 0 makes the
// first accepted connection crash before replying to that round;
// later connections (the coordinator's redials) serve cleanly.
func serveTCPWorkers(t *testing.T, failFirst int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	var first atomic.Bool
	first.Store(true)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			fail := 0
			if first.Swap(false) {
				fail = failFirst
			}
			go func() {
				defer c.Close()
				ServeWith(c, c, ServeOpts{FailAfterRounds: fail})
			}()
		}
	}()
	return ln.Addr().String()
}

// TestDistTCPTransport is the tentpole transport proof: the same cell
// run over real TCP connections to listening workers — including one
// whose first session crashes mid-run and is revived by re-dialing
// the same host — stays byte-identical to the sequential engine.
func TestDistTCPTransport(t *testing.T) {
	c := distCells[0]
	seqRes, seqCSV := runCell(t, cellConfig(t, c, false))
	cases := []struct {
		name      string
		failFirst int
	}{
		{"healthy", 0},
		{"worker-killed-mid-run", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hosts := []string{serveTCPWorkers(t, 0), serveTCPWorkers(t, tc.failFirst)}
			b, err := New(Options{Hosts: hosts, Protocol: c.proto, RoundItems: 8})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer b.Close()
			if b.opt.Workers != len(hosts) {
				t.Errorf("Workers defaulted to %d, want %d", b.opt.Workers, len(hosts))
			}
			cfg := cellConfig(t, c, true)
			cfg.Backend = b
			res, csv := runCell(t, cfg)
			if !reflect.DeepEqual(seqRes, res) {
				t.Errorf("TCP transport: Result diverged from sequential")
			}
			if !bytes.Equal(seqCSV, csv) {
				t.Errorf("TCP transport: event CSV diverged (byte %d)", firstDiff(seqCSV, csv))
			}
		})
	}
}

// countingConn counts bytes the coordinator writes, for the delta
// wire-savings assertion.
type countingConn struct {
	io.ReadWriteCloser
	n *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// TestDistDeltaEqualsFull is the delta-shipping proof obligation:
// the same cells with delta shipping (default) and with
// FullSnapshots forced produce byte-identical Results and CSVs —
// applying cache references is observationally equal to restoring the
// full snapshot — while the delta path puts strictly fewer
// coordinator→worker bytes on the wire.
func TestDistDeltaEqualsFull(t *testing.T) {
	for _, c := range distCells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			seqRes, seqCSV := runCell(t, cellConfig(t, c, false))
			var sent [2]atomic.Int64
			for mode, full := range []bool{false, true} {
				p := newInProcWorkers(nil)
				counter := &sent[mode]
				dial := func(n int) ([]io.ReadWriteCloser, error) {
					conns, err := p.dial(n)
					for i := range conns {
						conns[i] = countingConn{ReadWriteCloser: conns[i], n: counter}
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
			delta, full := sent[0].Load(), sent[1].Load()
			if delta >= full {
				t.Errorf("delta shipping sent %d bytes, full snapshots %d — no wire savings", delta, full)
			}
			t.Logf("coordinator->worker bytes: delta %d, full %d (%.2fx)", delta, full, float64(full)/float64(delta))
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
// state dimension populated: counters, encounter history, control
// load, pinned and relay copies, Received set, Ext state.
func TestSnapshotNodeRoundTrip(t *testing.T) {
	fac, err := protocol.Parse("immunity")
	if err != nil {
		t.Fatal(err)
	}
	proto := fac.New()
	n := node.New(3, 10)
	proto.Init(n)
	n.ControlSent, n.DataSent, n.Refused = 17, 4, 1
	n.Expired, n.Evicted, n.ByteDropped = 2, 3, 9
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
	st, err := snapshotNode(n)
	if err != nil {
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
	again, err := snapshotNode(n2)
	if err != nil {
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
