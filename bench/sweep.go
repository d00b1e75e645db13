package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dtnsim"
)

// paperSubstrates are the two mobility substrates of the paper's §V.
var paperSubstrates = []dtnsim.MobilitySpec{"cambridge", "subscriber"}

// paperSweep is the paper's evaluation grid: every protocol at every
// load over both substrates, one run per point, on one worker.
type paperSweep struct {
	e        *env
	contacts int64 // pulled by the runs of the op in flight
}

func (w *paperSweep) clients() int { return 1 }

func (w *paperSweep) setUp(e *env) error {
	w.e = e
	return nil
}

func (w *paperSweep) tearDown() error { return nil }

func sweepSpec(sub dtnsim.MobilitySpec, seed uint64, workers int) dtnsim.SweepSpec {
	return dtnsim.SweepSpec{
		Scenario:  dtnsim.Scenario{Mobility: sub, Seed: seed},
		Protocols: dtnsim.BuiltinProtocolSpecs(),
		Loads:     dtnsim.DefaultLoads(),
		Runs:      1,
		Workers:   workers,
	}
}

// op is RunSweepSpec over both substrates, spelled as its two halves
// (Compile, RunSweep) so the compiled sweep's Stream seam can count the
// contacts and, when tracing, OnPoint can mark the points.
func (w *paperSweep) op(id, parent int) (*opOut, error) {
	tr := w.e.tracer(parent)
	w.contacts = 0
	results := make([]*dtnsim.SweepResult, 0, len(paperSubstrates))
	for _, sub := range paperSubstrates {
		sw, err := sweepSpec(sub, opSeed(w.e.seed, id), 1).Compile()
		if err != nil {
			return nil, err
		}
		stream := sw.Scenario.Stream
		sw.Scenario.Stream = func(seed uint64) (dtnsim.ContactSource, error) {
			src, err := stream(seed)
			return countingSource{src, &w.contacts}, err
		}
		sweepSpan := 0
		if tr != nil {
			sweepSpan = tr.begin("experiment.sweep", parent, id)
			left := len(sw.Protocols) * len(sw.Loads)
			point := tr.begin("experiment.point", sweepSpan, id)
			sw.OnPoint = func(string, int) {
				tr.end(point)
				if left--; left > 0 {
					point = tr.begin("experiment.point", sweepSpan, id)
				}
			}
		}
		res, err := dtnsim.RunSweep(sw)
		if tr != nil {
			tr.end(sweepSpan)
		}
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return &opOut{contacts: w.contacts, payload: results}, nil
}

// sweepText is the canonical text of a sweep result the digest is taken
// over (JSON cannot carry the NaN delay of a point no run completed).
func sweepText(res *dtnsim.SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %v\n", res.Scenario, res.Loads)
	for _, s := range res.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s|%d|%d|%d", s.Label, p.Load, p.Completed, p.Runs)
			for _, m := range dtnsim.AllMetrics() {
				b.WriteString("|" + strconv.FormatFloat(p.Values[m], 'g', -1, 64))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func (w *paperSweep) verify(id int, out *opOut) error {
	var text strings.Builder
	for _, res := range out.payload.([]*dtnsim.SweepResult) {
		if len(res.Series) != len(dtnsim.BuiltinProtocolSpecs()) {
			return fmt.Errorf("%s: %d series", res.Scenario, len(res.Series))
		}
		for _, s := range res.Series {
			if len(s.Points) != len(dtnsim.DefaultLoads()) {
				return fmt.Errorf("%s/%s: %d points", res.Scenario, s.Label, len(s.Points))
			}
			for _, p := range s.Points {
				d := p.Values[dtnsim.MetricDelivery]
				if p.Runs != 1 || !(d >= 0 && d <= 1) || p.Completed > p.Runs {
					return fmt.Errorf("%s/%s load %d: runs %d, completed %d, delivery ratio %v",
						res.Scenario, s.Label, p.Load, p.Runs, p.Completed, d)
				}
				if c := p.Values[dtnsim.MetricDelay]; (p.Completed == 0) != math.IsNaN(c) {
					return fmt.Errorf("%s/%s load %d: %d completed runs but delay %v", res.Scenario, s.Label, p.Load, p.Completed, c)
				}
			}
		}
		text.WriteString(sweepText(res))
	}
	if out.contacts == 0 {
		return fmt.Errorf("the sweeps pulled no contact")
	}
	out.digest = digest([]byte(text.String()))
	return nil
}

func (w *paperSweep) finish(p *pass) error {
	tr := w.e.tr
	if tr == nil {
		return nil
	}
	// The probes below add spans, so take the sweep figures first.
	tot, err := tr.totals()
	if err != nil {
		return err
	}
	if sw, pt := tot["experiment.sweep"], tot["experiment.point"]; sw != nil && pt != nil {
		p.layer["experiment.runs"] = float64(pt.Spans) / float64(p.n())
		p.layer["experiment.runs_per_s"] = float64(pt.Spans) / (float64(sw.Busy) / 1e9)
	}
	if err := w.protocolProbe(p); err != nil {
		return err
	}
	if err := parallelProbe(p, w.e.seed); err != nil {
		return err
	}
	for _, sub := range paperSubstrates {
		t0 := time.Now()
		const reps = 20
		for i := 0; i < reps; i++ {
			if _, err := (dtnsim.Scenario{Mobility: sub, Seed: w.e.seed + uint64(i)}).Materialize(); err != nil {
				return err
			}
		}
		p.layer["mobility."+string(sub)+"_generate_ms"] = 1e3 * time.Since(t0).Seconds() / reps
	}
	bufferProbe(p.layer)
	metricsProbe(p.layer)
	return nil
}

// probeOp is the op id the spans of a probe carry, apart from the ops'.
const probeOp = 1 << 20

// protocolProbe runs each protocol once at load 50 over both substrates
// with the decorators on: the per-protocol run times, and the mobility
// and core figures of this workload (a sweep hides its runs, so they
// cannot be taken from the ops).
func (w *paperSweep) protocolProbe(p *pass) error {
	tr := w.e.tr
	var c counters
	var contacts int64
	var compile float64
	runs := 0
	for i, proto := range dtnsim.BuiltinProtocolSpecs() {
		root := tr.begin("probe.protocol", 0, probeOp+i)
		var busy float64
		for _, sub := range paperSubstrates {
			sc := dtnsim.Scenario{
				Mobility: sub, Protocol: proto, Seed: w.e.seed, RunToHorizon: true,
				Flows: []dtnsim.Flow{{Src: 0, Dst: 7, Count: 50}},
			}
			t0 := time.Now()
			cfg, err := sc.Compile()
			compile += time.Since(t0).Seconds()
			if err != nil {
				return err
			}
			t0 = time.Now()
			run, err := runEngine(tr, root, probeOp+i, cfg, false, nil)
			busy += time.Since(t0).Seconds()
			if err != nil {
				return err
			}
			if err := conserved(run.res, sc.Flows); err != nil {
				return fmt.Errorf("%s over %s: %w", proto, sub, err)
			}
			rc := resultCounters(run.res)
			rc.Samples = run.samples
			c.add(rc)
			contacts += run.contacts
			runs++
		}
		tr.end(root)
		name, _, _ := strings.Cut(string(proto), ":")
		p.layer["protocol."+name+".run_ms"] = 1e3 * busy / float64(len(paperSubstrates))
	}
	p.layer["scenario.compile_ms"] = 1e3 * compile / float64(runs)
	tot, err := tr.totalsFor(func(op int) bool { return op >= probeOp })
	if err != nil {
		return err
	}
	engineLayers(p.layer, tot, c, contacts)
	return nil
}

// parallelProbe is the harness's parallel efficiency: one sweep on one
// worker against the same sweep on nproc workers.
func parallelProbe(p *pass, seed uint64) error {
	nproc := runtime.GOMAXPROCS(0)
	timeSweep := func(workers int) (float64, string, error) {
		t0 := time.Now()
		res, err := dtnsim.RunSweepSpec(sweepSpec("cambridge", seed, workers))
		if err != nil {
			return 0, "", err
		}
		return time.Since(t0).Seconds(), sweepText(res), nil
	}
	t1, r1, err := timeSweep(1)
	if err != nil {
		return err
	}
	tn, rn, err := timeSweep(nproc)
	if err != nil {
		return err
	}
	if r1 != rn {
		return fmt.Errorf("sweep results differ between 1 and %d workers", nproc)
	}
	p.layer["experiment.parallel_eff"] = t1 / tn / float64(nproc)
	return nil
}
