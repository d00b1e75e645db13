package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"dtnsim"
)

// goBuild builds one of the repository's commands into bench/out/bin.
// It is part of set-up: a user of dtnsim-worker or the CLI pays it once.
func goBuild(e *env, pkg string) (string, error) {
	bin := filepath.Join(e.out, "bin", filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %w\n%s", pkg, err, out)
	}
	return bin, nil
}

// scale5k is the 5k-node constant-density cell every executor pair of
// bench_test.go is timed on: streaming RWP, pure epidemic, 30 bundles
// that almost never meet a carrier.
type scale5k struct {
	e *env
}

func (w *scale5k) clients() int { return 1 }

func (w *scale5k) setUp(e *env) error {
	w.e = e
	return nil
}

func (w *scale5k) tearDown() error { return nil }

// scenario is op id's cell: a plan of its own, so that a pass averages
// over plans (allocation alone differs by 15% between two of them).
func (w *scale5k) scenario(id int) dtnsim.Scenario {
	return dtnsim.Scenario{
		Mobility:     "rwp:nodes=5000,area=14142,span=2500,range=100,dt=25",
		Protocol:     "pure",
		Flows:        []dtnsim.Flow{{Src: 0, Dst: 4999, Count: 30}},
		Seed:         opSeed(w.e.seed, id),
		RunToHorizon: true,
	}
}

// scaleOut is one op's outputs.
type scaleOut struct {
	run      *engineRun
	flows    []dtnsim.Flow
	contacts int64
}

func (w *scale5k) op(id, parent int) (*opOut, error) {
	tr := w.e.tracer(parent)
	sc := w.scenario(id)
	compile := 0
	if tr != nil {
		compile = tr.begin("scenario.compile", parent, id)
	}
	cfg, err := sc.Compile()
	if tr != nil {
		tr.end(compile)
	}
	if err != nil {
		return nil, err
	}
	out := &scaleOut{flows: sc.Flows}
	cfg.Source = countingSource{cfg.Source, &out.contacts}
	if out.run, err = runEngine(tr, parent, id, cfg, false, nil); err != nil {
		return nil, err
	}
	return &opOut{contacts: out.contacts, payload: out}, nil
}

func (w *scale5k) verify(id int, out *opOut) error {
	so := out.payload.(*scaleOut)
	if err := conserved(so.run.res, so.flows); err != nil {
		return err
	}
	if so.contacts == 0 {
		return fmt.Errorf("the run pulled no contact")
	}
	if so.run.contacts != 0 && so.run.contacts != so.contacts {
		return fmt.Errorf("the timing decorator saw %d contacts, the counter %d", so.run.contacts, so.contacts)
	}
	out.digest = digest(resultText(so.run.res), []byte(fmt.Sprint(so.contacts)))
	out.c = resultCounters(so.run.res)
	out.c.Samples = so.run.samples
	return nil
}

func (w *scale5k) finish(p *pass) error {
	tr := w.e.tr
	if tr == nil {
		return nil
	}
	tot, err := tr.totals()
	if err != nil {
		return err
	}
	engineLayers(p.layer, tot, p.c, p.contacts)
	if c := tot["scenario.compile"]; c != nil {
		p.layer["scenario.compile_ms"] = 1e3 * float64(c.Busy) / 1e9 / float64(c.Spans)
	}
	return w.cliProbe(p)
}

// cliProbe runs the built dtnsim binary on the same scenario from a
// file: what a user of `dtnsim -scenario` waits for, and how much of it
// is process start-up rather than the op measured in-process.
func (w *scale5k) cliProbe(p *pass) error {
	bin, err := goBuild(w.e, "./cmd/dtnsim")
	if err != nil {
		return err
	}
	js, err := w.scenario(0).JSON()
	if err != nil {
		return err
	}
	file := filepath.Join(w.e.out, "scale5k.json")
	if err := os.WriteFile(file, js, 0o644); err != nil {
		return err
	}
	var walls []float64
	for i := 0; i < w.e.reps(3); i++ {
		t0 := time.Now()
		if out, err := exec.Command(bin, "-scenario", file).CombinedOutput(); err != nil {
			return fmt.Errorf("dtnsim -scenario: %w\n%s", err, out)
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	p.layer["cli.scenario_wall_s"] = median(walls)
	p.layer["cli.startup_overhead_s"] = median(walls) - median(p.ref.opS)
	return nil
}
