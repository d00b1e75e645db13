// Command figures regenerates every figure and table from the paper's
// evaluation section: Fig. 7–20, Table II, and the §V-C signaling
// overhead comparison. For each experiment it writes a CSV under -out
// and prints the series as an aligned table and an ASCII chart.
//
// Usage:
//
//	figures                     # everything, paper parameters (10 runs)
//	figures -runs 3 -only fig07,fig13
//	figures -out results -seed 7
//	figures -workers 4          # bound the simulation worker pool
//	figures -specs              # also write each figure as SweepSpec JSON
//	figures -only scale         # the 1k/5k/10k-node scale sweep
//	figures -only scale -scale-nodes 1000,5000 -scale-runs 1
//	figures -only constrained   # the finite-bandwidth resource sweep
//
// The scale sweep is the population axis the streaming contact sources
// open (DESIGN.md §8): delivery ratio, per-bundle delay and buffer
// occupancy versus population under constant-density classic RWP. It
// is not part of the default set — populations in the thousands take
// minutes, so ask for it with -only scale. The constrained sweep is the
// contact-bandwidth axis (DESIGN.md §9), also run only when asked.
// Every experiment, whatever its axis, is one dtnsim.Sweep run by
// dtnsim.RunSweep.
//
// Every figure's sweep is built from registry specs, so -specs can
// serialize it: the written <id>.sweep.json files re-run through
// `dtnsim.ParseSweepSpec` (or any future runner) with bit-identical
// results.
//
// Each experiment's (series, axis value, run) grid executes on a worker
// pool of -workers goroutines (default: all CPUs). Results are
// bit-identical for every worker count; -workers 1 forces the
// sequential path.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dtnsim"
)

func main() {
	var (
		outDir     = flag.String("out", "results", "directory for CSV output")
		runs       = flag.Int("runs", 10, "runs per (protocol, load) point; the paper uses 10")
		seed       = flag.Uint64("seed", 2012, "base seed")
		only       = flag.String("only", "", "comma-separated experiment ids (default: all, plus fig14 and table2; 'scale' only runs when asked)")
		plots      = flag.Bool("plots", true, "print ASCII charts")
		quiet      = flag.Bool("q", false, "suppress progress output")
		workers    = flag.Int("workers", 0, "concurrent simulation runs per sweep (0 = all CPUs, 1 = sequential; results are identical)")
		specs      = flag.Bool("specs", false, "also write each experiment's serializable SweepSpec as <id>.sweep.json")
		scaleNodes = flag.String("scale-nodes", "1000,5000,10000", "node counts for -only scale")
		scaleRuns  = flag.Int("scale-runs", 3, "runs per (protocol, nodes) scale point")
		scaleSpan  = flag.Float64("scale-span", 50000, "simulated seconds per scale run (shorter spans keep 100k-node cells inside a time budget)")
	)
	flag.Parse()
	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			selected[id] = true
		}
	}
	if err := checkFlags(selected, *runs, *scaleRuns, *workers, *scaleSpan); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		flag.Usage()
		os.Exit(2)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	for _, f := range dtnsim.AllExperiments() {
		if !want(f.ID) {
			continue
		}
		if f.ID == "fig14" {
			continue // handled as a scenario pair below
		}
		f.Sweep.Runs = *runs
		f.Sweep.BaseSeed = *seed
		f.Sweep.Workers = *workers
		if *specs {
			emitSpec(*outDir, f.ID, f.Sweep)
		}
		if !*quiet {
			f.Sweep.OnPoint = func(label string, load int) {
				fmt.Fprintf(os.Stderr, "\r%s: %-40s load %2d   ", f.ID, label, load)
			}
		}
		res, err := dtnsim.RunSweep(f.Sweep)
		if err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Fprintln(os.Stderr)
		}
		table := dtnsim.TableOf(res, f.Metric, fmt.Sprintf("%s: %s", f.ID, f.Title))
		emit(*outDir, f.ID, table, *plots)
		fmt.Printf("expected shape: %s\n\n", f.Expect)
	}

	if want("fig14") {
		runFig14(*outDir, *runs, *seed, *workers, *plots, *specs)
	}
	if want("table2") {
		runTableII(*outDir, *runs, *seed, *workers)
	}
	// The scale and constrained sweeps run only when explicitly selected.
	if selected["scale"] {
		runScale(*outDir, *scaleNodes, *scaleRuns, *seed, *workers, *scaleSpan, *quiet)
	}
	if selected["constrained"] {
		runConstrained(*outDir, *runs, *seed, *workers, *quiet)
	}
}

// runConstrained executes the bandwidth sweep (DESIGN.md §9) and writes
// constrained.csv: delivery ratio, per-bundle delay and drop counts
// versus contact bandwidth for each (protocol, drop policy) series at a
// fixed load of sized bundles.
func runConstrained(outDir string, runs int, seed uint64, workers int, quiet bool) {
	sw := dtnsim.BandwidthSweep()
	sw.Runs = runs
	sw.BaseSeed = seed
	sw.Workers = workers
	bws := sw.Axis.Bandwidths
	if !quiet {
		sw.OnPoint = func(label string, i int) {
			fmt.Fprintf(os.Stderr, "\rconstrained: %-36s bw %8.0f B/s   ", label, bws[i-1])
		}
	}
	res, err := dtnsim.RunSweep(sw)
	if err != nil {
		fatal(err)
	}
	if !quiet {
		fmt.Fprintln(os.Stderr)
	}
	var csv strings.Builder
	csv.WriteString("bandwidth_Bps,protocol,drop_policy,delivery_ratio,mean_delay_s,drops,byte_dropped,refused,completed,runs\n")
	fmt.Println("constrained: delivery / delay / drops vs contact bandwidth (1 MB bundles, byte-bounded buffers)")
	for _, s := range res.Series {
		for i, p := range s.Points {
			bw, v := res.Axis.Bandwidths[i], p.Values
			fmt.Fprintf(&csv, "%g,%q,%q,%.4f,%.1f,%.1f,%.1f,%.1f,%d,%d\n",
				bw, s.Protocol, s.Policy, v[dtnsim.MetricDelivery], v[dtnsim.MetricMeanDelay],
				v[dtnsim.MetricDrops], v[dtnsim.MetricByteDropped], v[dtnsim.MetricRefused], p.Completed, p.Runs)
			fmt.Printf("  %-36s %8.0f B/s: delivery %.3f, delay %8.0f s, drops %6.1f (bytepressure %.1f, refused %.1f)\n",
				s.Label, bw, v[dtnsim.MetricDelivery], v[dtnsim.MetricMeanDelay],
				v[dtnsim.MetricDrops], v[dtnsim.MetricByteDropped], v[dtnsim.MetricRefused])
		}
	}
	if err := os.WriteFile(filepath.Join(outDir, "constrained.csv"), []byte(csv.String()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("expected shape: delivery rises with bandwidth; once byte pressure binds, dropfront/droprandom out-deliver droptail for TTL-less flooding (fresh copies displace stale ones)")
}

// checkFlags refuses run counts and a scale span the sweeps cannot
// honour: they read a non-positive value as "use the default", so
// -runs -2 would otherwise write 3 or 10 runs per point and exit 0.
// A flag is checked only when a selected experiment reads it: -runs
// unless scale is the only one asked for, -scale-runs and -scale-span
// only when it is. (A non-finite span is the mobility registry's to
// refuse.) Every experiment reads -workers, and a negative count is
// refused before anything is written.
func checkFlags(selected map[string]bool, runs, scaleRuns, workers int, scaleSpan float64) error {
	if workers < 0 {
		return fmt.Errorf("-workers %d is not a worker count (0 = all CPUs)", workers)
	}
	scaleOnly := len(selected) == 1 && selected["scale"]
	if !scaleOnly && runs <= 0 {
		return fmt.Errorf("-runs %d is not a positive run count", runs)
	}
	if !selected["scale"] {
		return nil
	}
	if scaleRuns <= 0 {
		return fmt.Errorf("-scale-runs %d is not a positive run count", scaleRuns)
	}
	if !(scaleSpan > 0) {
		return fmt.Errorf("-scale-span %g is not a positive number of seconds", scaleSpan)
	}
	return nil
}

// runScale executes the population sweep and writes scale.csv: delivery
// ratio, per-bundle delay and buffer occupancy versus node count for
// each protocol, each run streaming its mobility source.
func runScale(outDir, nodesCSV string, runs int, seed uint64, workers int, span float64, quiet bool) {
	sw := dtnsim.PopulationSweep(span)
	sw.Runs = runs
	sw.BaseSeed = seed
	sw.Workers = workers
	sw.Axis.Nodes = nil
	for _, f := range strings.Split(nodesCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			fatal(fmt.Errorf("bad -scale-nodes entry %q", f))
		}
		sw.Axis.Nodes = append(sw.Axis.Nodes, n)
	}
	if !quiet {
		sw.OnPoint = func(label string, nodes int) {
			fmt.Fprintf(os.Stderr, "\rscale: %-24s %6d nodes   ", label, nodes)
		}
	}
	res, err := dtnsim.RunSweep(sw)
	if err != nil {
		fatal(err)
	}
	if !quiet {
		fmt.Fprintln(os.Stderr)
	}
	var csv strings.Builder
	csv.WriteString("nodes,protocol,delivery_ratio,mean_delay_s,occupancy,completed,runs\n")
	fmt.Println("scale: delivery / delay / occupancy vs population (streaming mobility)")
	for _, s := range res.Series {
		for i, p := range s.Points {
			nodes, v := res.Axis.Nodes[i], p.Values
			fmt.Fprintf(&csv, "%d,%q,%.4f,%.1f,%.4f,%d,%d\n",
				nodes, s.Label, v[dtnsim.MetricDelivery], v[dtnsim.MetricMeanDelay], v[dtnsim.MetricOccupancy], p.Completed, p.Runs)
			fmt.Printf("  %-24s %6d nodes: delivery %.3f, delay %8.0f s, occupancy %.3f\n",
				s.Label, nodes, v[dtnsim.MetricDelivery], v[dtnsim.MetricMeanDelay], v[dtnsim.MetricOccupancy])
		}
	}
	if err := os.WriteFile(filepath.Join(outDir, "scale.csv"), []byte(csv.String()), 0o644); err != nil {
		fatal(err)
	}
}

func runFig14(outDir string, runs int, seed uint64, workers int, plots, specs bool) {
	short, long := dtnsim.Fig14Pair()
	short.Runs, long.Runs = runs, runs
	short.BaseSeed, long.BaseSeed = seed, seed
	short.Workers, long.Workers = workers, workers
	if specs {
		emitSpec(outDir, "fig14_400", short)
		emitSpec(outDir, "fig14_2000", long)
	}
	rs, err := dtnsim.RunSweep(short)
	if err != nil {
		fatal(err)
	}
	rl, err := dtnsim.RunSweep(long)
	if err != nil {
		fatal(err)
	}
	// Merge the two single-series results into one two-column table.
	merged := &dtnsim.SweepResult{
		Scenario: "interval",
		Loads:    rs.Loads,
		Series: []dtnsim.Series{
			{Label: "Interval time = 400", Points: rs.Series[0].Points},
			{Label: "Interval time = 2000", Points: rl.Series[0].Points},
		},
	}
	table := dtnsim.TableOf(merged, dtnsim.MetricDelivery,
		"fig14: Delivery ratio of epidemic with TTL=300 under interval 400 vs 2000")
	emit(outDir, "fig14", table, plots)
	fmt.Printf("expected shape: the 2000 s scenario delivers >=20%% less\n\n")
}

func runTableII(outDir string, runs int, seed uint64, workers int) {
	fmt.Fprintln(os.Stderr, "table2: running both mobility sources...")
	rows, err := dtnsim.TableII(seed, runs, workers)
	if err != nil {
		fatal(err)
	}
	text := dtnsim.RenderTableII(rows)
	fmt.Println(text)
	var csv strings.Builder
	csv.WriteString("protocol,delivery_rwp,delivery_trace,occupancy_rwp,occupancy_trace,duplication_rwp,duplication_trace\n")
	for _, r := range rows {
		fmt.Fprintf(&csv, "%q,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f\n",
			r.Protocol, r.DeliveryRWP, r.DeliveryTr, r.OccupancyRWP, r.OccupancyTr, r.DupRWP, r.DupTr)
	}
	if err := os.WriteFile(filepath.Join(outDir, "table2.csv"), []byte(csv.String()), 0o644); err != nil {
		fatal(err)
	}
}

// emitSpec writes a sweep's serializable form next to its CSV.
func emitSpec(outDir, id string, sweep dtnsim.Sweep) {
	sp, err := dtnsim.SweepSpecOf(id, sweep)
	if err != nil {
		fatal(err)
	}
	data, err := sp.JSON()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(outDir, id+".sweep.json"), append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
}

func emit(outDir, id string, table *dtnsim.ResultTable, plots bool) {
	if err := os.WriteFile(filepath.Join(outDir, id+".csv"), []byte(table.CSV()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println(table.ASCII())
	if plots {
		fmt.Println(table.Plot(64, 16))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
