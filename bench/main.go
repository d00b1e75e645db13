// Command bench is the repository's benchmark: seven workloads, each
// with an end-to-end pass (tracing off) and a traced pass that
// attributes the time to layers from outside the program. BENCHMARK.json
// at the repository root is its contract; README.md explains the choices.
//
//	go run ./bench                              every workload, both passes, into bench/out/result.json
//	go run ./bench -workload replay_seq         one end-to-end pass
//	go run ./bench -workload replay_seq -trace 1 -seed 7
//	go run ./bench -smoke                       two ops of everything, in-process
//	go run ./bench -compare A.json B.json
//	go run ./bench -update-expected
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// defaultSeed is the repository's benchSeed (bench_test.go).
const defaultSeed = 2012

// workloads maps the names BENCHMARK.json lists to their constructors.
var workloads = map[string]func() workload{
	"paper_sweep":    func() workload { return &paperSweep{} },
	"scale5k_stream": func() workload { return &scale5k{} },
	"replay_seq":     func() workload { return &replay{executor: "seq"} },
	"replay_shard":   func() workload { return &replay{executor: "shard"} },
	"replay_dist":    func() workload { return &replay{executor: "dist"} },
	"daemon_cold":    func() workload { return &daemon{cold: true} },
	"daemon_hit":     func() workload { return &daemon{} },
}

// benchSpec is BENCHMARK.json: the names, units and bounds of everything
// the benchmark reports. The program reads them from there, so the file
// and the output cannot drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the repository root:
// `go run ./bench` starts there, `go test` in bench/ one level below.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module dtnsim\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the dtnsim module")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
	return &spec, nil
}

// report is what a run prints: every metric of the pass by name with
// its unit, then — as the last line — the one JSON object the contract
// asks for. A measured metric BENCHMARK.json does not name is an error;
// a per-layer metric the workload does not exercise reads 0.
func report(spec *benchSpec, res *result) error {
	list := spec.EndToEnd
	if res.Trace {
		list = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	known := map[string]bool{}
	metrics := map[string]value{}
	fmt.Printf("%s seed=%d trace=%v: %d timed ops (the samples behind op_s_p50)\n", res.Workload, res.Seed, res.Trace, res.Ops)
	for _, m := range list {
		known[m.Name] = true
		v, ok := res.Metrics[m.Name]
		if !ok && !res.Trace {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", res.Workload, m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
		if ok {
			fmt.Printf("  %-32s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	var stray []string
	for name := range res.Metrics {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return fmt.Errorf("%s: measured metrics BENCHMARK.json does not name: %v", res.Workload, stray)
	}
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
	if res.Error != "" {
		fmt.Println("  FAILED:", res.Error)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// resultFile is bench/out/result.json: every workload's two passes and
// the machine they ran on.
type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Results     []*result   `json:"results"`
}

// runAll runs every workload in a child process of its own, so one
// workload's heap, caches and CPU accounting do not bleed into the next.
func runAll(root string, spec *benchSpec, o runOpts, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Fingerprint: takeFingerprint(root, o)}
	failed := false
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			single := filepath.Join(root, "bench", "out", "last-"+w.Name+"-trace"+trace+".json")
			cmd := exec.Command(self, "-workload", w.Name, "-trace", trace,
				"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-ops", fmt.Sprint(o.ops), "-out", single)
			cmd.Dir = root
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = true
				fmt.Fprintf(os.Stderr, "bench: %s trace=%s: %v\n", w.Name, trace, err)
			}
			one, err := readResults(single)
			if err != nil {
				return err
			}
			file.Results = append(file.Results, one.Results...)
		}
	}
	if err := writeJSON(outPath, file); err != nil {
		return err
	}
	fmt.Println("results:", outPath)
	if failed {
		return errors.New("at least one workload failed its checks")
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// smoke runs two ops and a one-op traced pass of every workload in this
// process: enough to execute every code path and every check.
func smoke(root string, spec *benchSpec, seed uint64) ([]*result, error) {
	var all []*result
	cells := map[uint64]*replayCell{}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			ops := 2
			if trace {
				ops = 1
			}
			res, err := runWorkload(w.Name, runOpts{root: root, seed: seed, ops: ops, trace: trace, setups: 1, cells: cells})
			if err != nil {
				return all, fmt.Errorf("%s: %w", w.Name, err)
			}
			all = append(all, res)
			if err := report(spec, res); err != nil {
				return all, err
			}
			if !res.Correct {
				return all, fmt.Errorf("%s trace=%v: %s", w.Name, trace, res.Error)
			}
		}
	}
	return all, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadFlag = flag.String("workload", "", "run one pass of this workload in this process (default: every workload, both passes)")
		seedFlag     = flag.Uint64("seed", defaultSeed, "seed every input is generated from")
		secondsFlag  = flag.Float64("seconds", 0, "how long a pass measures (default: run_seconds of BENCHMARK.json)")
		opsFlag      = flag.Int("ops", 0, "run exactly this many ops per pass instead of a duration")
		traceFlag    = flag.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced pass, per-layer metrics")
		outFlag      = flag.String("out", "", "result file (default bench/out/result.json)")
		smokeFlag    = flag.Bool("smoke", false, "two ops and a one-op traced pass of every workload, in-process")
		compareFlag  = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		updateFlag   = flag.Bool("update-expected", false, "regenerate bench/expected.json for the default seed")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if *compareFlag {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compare(spec, flag.Arg(0), flag.Arg(1))
	}
	if *updateFlag {
		return updateExpected(root, spec)
	}
	if *smokeFlag {
		_, err := smoke(root, spec, *seedFlag)
		return err
	}
	o := runOpts{root: root, seed: *seedFlag, seconds: *secondsFlag, ops: *opsFlag, trace: *traceFlag != 0, setups: 3}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	outPath := *outFlag
	if *workloadFlag == "" {
		if outPath == "" {
			outPath = filepath.Join(root, "bench", "out", "result.json")
		}
		return runAll(root, spec, o, outPath)
	}
	res, err := runWorkload(*workloadFlag, o)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := writeJSON(outPath, resultFile{Fingerprint: takeFingerprint(root, o), Results: []*result{res}}); err != nil {
			return err
		}
	}
	if err := report(spec, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d checks failed: %s", res.Workload, res.Failed, res.Attempted, res.Error)
	}
	return nil
}
