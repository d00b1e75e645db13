// Command dtnsim runs a single DTN simulation and prints the paper's
// metrics for it, or — with -sweep — the full §IV load sweep (loads
// 5..50 step 5, several seeded runs per point) for one protocol.
//
// Runs are defined by registry specs (-proto, -mob) or entirely as
// data with -scenario file.json; -dump prints the scenario JSON
// equivalent to the current flags instead of running, so any
// flag-built run can be saved and replayed bit-identically. -list
// shows every registered protocol and mobility spec. dtnsim takes
// flags only: a stray argument is a usage error.
//
// Usage:
//
//	dtnsim -mob cambridge -proto dynttl -load 25 -src 0 -dst 7
//	dtnsim -proto pq:p=0.5,q=0.5 -mob subscriber -load 50 -seed 3
//	dtnsim -scenario run.json -events events.csv
//	dtnsim -mob trace:contacts.txt -proto immunity -load 30
//	dtnsim -sweep -mob subscriber -proto ecttl -runs 10 -workers 4
//	dtnsim -remote http://localhost:8642 -scenario run.json
//	dtnsim -list
//
// With -remote URL the run (or sweep) executes on a dtnsimd daemon
// instead of locally: the scenario is submitted to POST /v1/jobs,
// polled until done, and the cached result is printed in the local
// format. Repeat invocations of the same spec and seed are answered
// from the daemon's result cache without re-simulating. The daemon
// runs the normalized spec, so -workers does not reach it: it executes
// every job on its own defaults.
//
// In sweep mode the (load, run) grid executes on a worker pool of
// -workers goroutines (0, the default, uses all CPUs; 1 forces the
// sequential path). Results are bit-identical for every worker count:
// each run's seed derives only from (-seed, load, run). Sweep mode
// drives the paper's own methodology, so -src and -dst (pairs are
// re-randomized per run), -load (the full 5..50 axis is swept) and
// -full (sweeps always run to the horizon for steady-state buffer
// metrics) are ignored there.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dtnsim"
)

func main() {
	var (
		mobFlag      = flag.String("mob", "cambridge", "mobility registry spec: cambridge | subscriber | rwp | interval:max=400 | trace:PATH, with k=v args")
		protoFlag    = flag.String("proto", "pure", "protocol registry spec, e.g. pq:p=0.8,q=0.5 or ttl:300")
		scenarioFlag = flag.String("scenario", "", "run a JSON scenario file instead of building one from flags")
		listFlag     = flag.Bool("list", false, "list every registered protocol and mobility spec, then exit")
		dumpFlag     = flag.Bool("dump", false, "print the scenario JSON equivalent to the flags instead of running")
		seriesFlag   = flag.String("series", "", "write the periodic metric samples to this CSV file as the run progresses")
		eventsFlag   = flag.String("events", "", "write every engine event (generate/transmit/deliver/drop) plus samples to this CSV file")
		loadFlag     = flag.Int("load", 25, "bundles to send (the paper sweeps 5..50)")
		srcFlag      = flag.Int("src", 0, "source node")
		dstFlag      = flag.Int("dst", 7, "destination node")
		seedFlag     = flag.Uint64("seed", 42, "random seed (mobility and protocol draws)")
		bufFlag      = flag.Int("buffer", dtnsim.DefaultBufferCap, "per-node buffer capacity in bundles")
		txFlag       = flag.Float64("txtime", dtnsim.DefaultTxTime, "seconds to transmit one bundle")
		bwFlag       = flag.Float64("bw", 0, "contact bandwidth in bytes/sec (0 = unconstrained: each bundle takes -txtime)")
		sizeFlag     = flag.Int64("size", 0, "payload size per bundle in bytes (0 = size-less: no bandwidth or byte budget is charged)")
		bufBytesFlag = flag.Int64("bufbytes", 0, "per-node buffer byte capacity (0 = unbounded)")
		dropFlag     = flag.String("drop", "", "byte-pressure drop policy: droptail | dropfront | droprandom (default droptail)")
		ctlBytesFlag = flag.Float64("ctlbytes", 0, "bytes charged per control record against a bandwidth-limited contact")
		horizonFlag  = flag.Bool("full", false, "run to the mobility horizon instead of stopping at delivery")
		timeoutFlag  = flag.Duration("timeout", 0, "abort the run (or sweep) after this much wall time, e.g. 30s (0 = no limit)")
		remoteFlag   = flag.String("remote", "", "run on a dtnsimd daemon at this base URL (e.g. http://localhost:8642) instead of locally")
		sweepFlag    = flag.Bool("sweep", false, "run the paper's §IV load sweep (5..50) instead of a single simulation")
		runsFlag     = flag.Int("runs", 10, "sweep mode: seeded runs per load point")
		workersFlag  = flag.Int("workers", 0, "sweep mode: concurrent runs (0 = all CPUs, 1 = sequential; results are identical)")
	)
	flag.Parse()
	if err := noOperands(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "dtnsim:", err)
		flag.Usage()
		os.Exit(2)
	}

	if *listFlag {
		printSpecLists()
		return
	}

	// Flags set on the command line, as opposed to left at their
	// defaults: each mode warns about the ones it ignores and lets a few
	// override presets.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *sweepFlag {
		for _, name := range []string{"src", "dst", "load", "full"} {
			if set[name] {
				fmt.Fprintf(os.Stderr, "dtnsim: -%s is ignored in sweep mode (pairs re-randomize per run; the full load axis runs to the horizon)\n", name)
			}
		}
		for _, name := range []string{"scenario", "series", "events"} {
			if set[name] {
				fmt.Fprintf(os.Stderr, "dtnsim: -%s is ignored in sweep mode (it applies to single runs only)\n", name)
			}
		}
		// Scenario presets (e.g. interval mobility's faster link) win
		// unless the user set -txtime/-buffer explicitly.
		txTime, bufferCap := 0.0, 0
		if set["txtime"] {
			txTime = *txFlag
		}
		if set["buffer"] {
			bufferCap = *bufFlag
		}
		runSweep(sweepParams{
			mobSpec: *mobFlag, protoSpec: *protoFlag,
			bufferCap: bufferCap, txTime: txTime,
			bandwidth: *bwFlag, bundleSize: *sizeFlag, bufferBytes: *bufBytesFlag,
			dropPolicy: *dropFlag, controlBytes: *ctlBytesFlag,
			seed: *seedFlag, runs: *runsFlag, workers: *workersFlag,
			timeout: *timeoutFlag, remote: *remoteFlag, dump: *dumpFlag,
		})
		return
	}

	var sc dtnsim.Scenario
	if *scenarioFlag != "" {
		// The file defines the whole run; warn about any set flag it
		// overrides so a "-scenario run.json -seed 7" invocation cannot
		// silently record the file's seed as the user's.
		for _, name := range []string{"mob", "proto", "load", "src", "dst", "seed",
			"buffer", "txtime", "full", "bw", "size", "bufbytes", "drop", "ctlbytes"} {
			if set[name] {
				fmt.Fprintf(os.Stderr, "dtnsim: -%s is ignored with -scenario (the file defines the run)\n", name)
			}
		}
		data, err := os.ReadFile(*scenarioFlag)
		if err != nil {
			fatal(err)
		}
		sc, err = dtnsim.ParseScenario(data)
		if err != nil {
			fatal(err)
		}
	} else {
		sc = dtnsim.Scenario{
			Mobility:     dtnsim.MobilitySpec(*mobFlag),
			Protocol:     dtnsim.ProtocolSpec(*protoFlag),
			Flows:        []dtnsim.Flow{{Src: dtnsim.NodeID(*srcFlag), Dst: dtnsim.NodeID(*dstFlag), Count: *loadFlag}},
			BufferCap:    *bufFlag,
			TxTime:       *txFlag,
			Seed:         *seedFlag,
			RunToHorizon: *horizonFlag,
			Bandwidth:    *bwFlag,
			BundleSize:   *sizeFlag,
			BufferBytes:  *bufBytesFlag,
			DropPolicy:   *dropFlag,
			ControlBytes: *ctlBytesFlag,
		}
	}

	if *dumpFlag {
		norm, err := sc.Normalize()
		if err != nil {
			fatal(err)
		}
		data, err := norm.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}

	if *remoteFlag != "" {
		runRemote(*remoteFlag, sc, *seriesFlag, *eventsFlag, *timeoutFlag)
		return
	}

	cfg, err := sc.Compile()
	if err != nil {
		fatal(err)
	}
	if *timeoutFlag > 0 {
		// The engine polls the context at event pops, so a 10k-node run
		// that would otherwise grind for minutes aborts within
		// microseconds of the deadline.
		ctx, cancel := context.WithTimeout(context.Background(), *timeoutFlag)
		defer cancel()
		cfg.Context = ctx
	}
	closers, err := attachStreams(&cfg, *seriesFlag, *eventsFlag)
	if err != nil {
		fatal(err)
	}

	// The mobility summary streams through its own source, like the run
	// itself (cfg.Source) — the schedule is never materialized.
	stream, err := sc.StreamMobility()
	if err != nil {
		fatal(err)
	}
	stats, err := dtnsim.AnalyzeContactSource(stream)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mobility: %s\n", stats)
	result, err := dtnsim.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := closers(); err != nil {
		fatal(err)
	}

	fmt.Printf("protocol: %s\n", result.Protocol)
	fmt.Printf("delivered: %d/%d (ratio %.3f)\n", result.Delivered, result.Generated, result.DeliveryRatio)
	if result.Completed {
		fmt.Printf("delay (all bundles): %.0f s\n", result.Makespan)
	} else {
		fmt.Println("delay: transmission failed (not all bundles arrived before the horizon)")
	}
	if result.Delivered > 0 {
		fmt.Printf("mean per-bundle delay: %.0f s\n", result.MeanDelay)
	}
	fmt.Printf("buffer occupancy level: %.3f\n", result.MeanOccupancy)
	fmt.Printf("bundle duplication rate: %.3f\n", result.MeanDuplication)
	fmt.Printf("signaling overhead: %d records\n", result.ControlRecords)
	fmt.Printf("bundle transmissions: %d (refused %d, evicted %d, expired %d, bytepressure %d)\n",
		result.DataTransmissions, result.Refused, result.Evicted, result.Expired, result.ByteDropped)
	fmt.Printf("finished at: %v\n", result.FinishedAt)
}

// attachStreams appends CSV stream observers for the -series and
// -events flags and returns a function that closes the files and
// reports the first deferred write error.
func attachStreams(cfg *dtnsim.Config, seriesPath, eventsPath string) (func() error, error) {
	var files []*os.File
	var bufs []*bufio.Writer
	var streams []interface{ Err() error }
	open := func(path string, events bool) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		// Buffer the file: -events emits one row per transmission, and a
		// syscall per row would dominate large runs.
		w := bufio.NewWriter(f)
		st := dtnsim.NewStreamObserver(w, events)
		cfg.Observers = append(cfg.Observers, st)
		files = append(files, f)
		bufs = append(bufs, w)
		streams = append(streams, st)
		return nil
	}
	if seriesPath != "" {
		if err := open(seriesPath, false); err != nil {
			return nil, err
		}
	}
	if eventsPath != "" {
		if err := open(eventsPath, true); err != nil {
			return nil, err
		}
	}
	return func() error {
		var first error
		for _, st := range streams {
			if err := st.Err(); err != nil && first == nil {
				first = err
			}
		}
		for _, w := range bufs {
			if err := w.Flush(); err != nil && first == nil {
				first = err
			}
		}
		for _, f := range files {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// printSpecLists prints every registered spec from both registries.
func printSpecLists() {
	fmt.Println("protocol specs (use with -proto, Scenario.Protocol, SweepSpec.Protocols):")
	for _, s := range dtnsim.ProtocolSpecs() {
		fmt.Printf("  %-12s %s\n", s.Name, s.Usage)
	}
	fmt.Println()
	fmt.Println("mobility specs (use with -mob, Scenario.Mobility):")
	for _, s := range dtnsim.MobilitySpecs() {
		fmt.Printf("  %-12s %s\n", s.Name, s.Usage)
	}
	fmt.Println()
	fmt.Println("drop policies (use with -drop, Scenario \"drop\" key; need -bufbytes):")
	for _, name := range dtnsim.DropPolicies() {
		fmt.Printf("  %-12s\n", name)
	}
}

// sweepParams carries the sweep-mode flag values.
type sweepParams struct {
	mobSpec, protoSpec string
	bufferCap          int
	txTime             float64
	bandwidth          float64
	bundleSize         int64
	bufferBytes        int64
	dropPolicy         string
	controlBytes       float64
	seed               uint64
	runs, workers      int
	timeout            time.Duration
	remote             string
	dump               bool
}

// noOperands refuses the arguments left after the flags. dtnsim takes
// flags only, and flag parsing stops at the first non-flag, so a stray
// "dtnsim -sweep spec.json -seed 3" would otherwise run the default
// sweep and drop -seed without a word.
func noOperands(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q: dtnsim takes flags only, and no flag after it was read", args[0])
	}
	return nil
}

// spec is the sweep the flags describe.
func (p sweepParams) spec() dtnsim.SweepSpec {
	return dtnsim.SweepSpec{
		Scenario: dtnsim.Scenario{
			Mobility:     dtnsim.MobilitySpec(p.mobSpec),
			TxTime:       p.txTime,
			BufferCap:    p.bufferCap,
			Seed:         p.seed,
			Bandwidth:    p.bandwidth,
			BundleSize:   p.bundleSize,
			BufferBytes:  p.bufferBytes,
			DropPolicy:   p.dropPolicy,
			ControlBytes: p.controlBytes,
		},
		Protocols: []dtnsim.ProtocolSpec{dtnsim.ProtocolSpec(p.protoSpec)},
		Runs:      p.runs,
		Workers:   p.workers,
	}
}

// sweepDump is what -sweep -dump prints: the sweep's normalized form,
// as single-run -dump prints the scenario's — canonical specs, engine
// and harness defaults spelled out, no worker count — which is the
// spec the daemon keys and caches for the same sweep.
func sweepDump(spec dtnsim.SweepSpec) ([]byte, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	return norm.JSON()
}

// runSweep executes the paper's load sweep for one protocol on the
// selected mobility source and prints the per-metric tables; with dump
// set it prints the sweep's normalized SweepSpec JSON instead of
// running.
func runSweep(p sweepParams) {
	spec := p.spec()
	sweep, err := spec.Compile()
	if err != nil {
		fatal(err)
	}
	if p.dump {
		data, err := sweepDump(spec)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	if p.remote != "" {
		// Ship the canonical serializable form; the daemon normalizes
		// it to what -dump prints.
		canon, err := dtnsim.SweepSpecOf(spec.Name, sweep)
		if err != nil {
			fatal(err)
		}
		runRemoteSweep(p.remote, canon, sweep.Scenario.Name, p.runs, p.timeout)
		return
	}
	sweep.OnPoint = func(label string, load int) {
		fmt.Fprintf(os.Stderr, "\r%-20s load %2d   ", label, load)
	}
	if p.timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
		defer cancel()
		sweep.Context = ctx
	}
	res, err := dtnsim.RunSweep(sweep)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr)
	for _, m := range []dtnsim.Metric{dtnsim.MetricDelivery, dtnsim.MetricDelay,
		dtnsim.MetricOccupancy, dtnsim.MetricDuplication} {
		fmt.Println(dtnsim.TableOf(res, m, fmt.Sprintf("%s (%s, %d runs/point)", m, sweep.Scenario.Name, p.runs)).ASCII())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, errorLine(err))
	os.Exit(1)
}

// errorLine is err as dtnsim reports it: prefixed "dtnsim: " once,
// also when the error's own text already starts so.
func errorLine(err error) string {
	if msg := err.Error(); strings.HasPrefix(msg, "dtnsim: ") {
		return msg
	}
	return "dtnsim: " + err.Error()
}
