package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"dtnsim"
	"dtnsim/internal/core"
)

// opSeed maps an op id to its seed: base+id for the timed ops, a range
// far from them for the warm-up ids -1, -2.
func opSeed(base uint64, id int) uint64 {
	if id >= 0 {
		return base + uint64(id)
	}
	return base + 1<<32 + uint64(-id)
}

func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultText is the canonical form of a Result the executors are
// compared on: every field, floats in their shortest exact spelling,
// deliveries sorted by bundle.
func resultText(r *dtnsim.Result) []byte {
	type delivery struct {
		Src, Seq int
		At       float64
	}
	deliveries := make([]delivery, 0, len(r.DeliveryTimes))
	for id, at := range r.DeliveryTimes {
		deliveries = append(deliveries, delivery{int(id.Src), id.Seq, float64(at)})
	}
	sort.Slice(deliveries, func(i, j int) bool {
		a, b := deliveries[i], deliveries[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Seq < b.Seq
	})
	flat := *r
	flat.DeliveryTimes = nil
	return []byte(fmt.Sprintf("%+v %+v", flat, deliveries))
}

func resultCounters(r *dtnsim.Result) counters {
	return counters{
		Transmissions: r.DataTransmissions,
		Deliveries:    int64(r.Delivered),
		Drops:         r.Refused + r.Evicted + r.Expired + r.ByteDropped,
		Generated:     int64(r.Generated),
	}
}

// conserved checks the laws every engine run must keep.
func conserved(r *dtnsim.Result, flows []dtnsim.Flow) error {
	want := 0
	for _, f := range flows {
		want += f.Count
	}
	if r.Generated != want {
		return fmt.Errorf("generated %d bundles, the flows ask for %d", r.Generated, want)
	}
	if r.Delivered > r.Generated || len(r.DeliveryTimes) != r.Delivered {
		return fmt.Errorf("delivered %d (%d delivery times) of %d generated", r.Delivered, len(r.DeliveryTimes), r.Generated)
	}
	return nil
}

// engineRun is one core run with the daemon's two stream observers.
type engineRun struct {
	res            *dtnsim.Result
	series, events bytes.Buffer
	// Counted in a traced run only: OnSample callbacks, contacts pulled
	// from cfg.Source, and the epochs and items cfg.Backend was handed.
	samples, contacts, epochs, items int64
}

// runEngine executes cfg. With streams it attaches a series and an
// events report.Stream writing into memory, as a dtnsimd job does. With
// a tracer it records a core.run span under parent and puts the
// decorators around the source, the observers and the backend; conn is
// the traced worker connection of a dist backend, or nil.
func runEngine(tr *tracer, parent, op int, cfg dtnsim.Config, streams bool, conn *tracedConn) (*engineRun, error) {
	run := &engineRun{}
	var obs []dtnsim.Observer
	if streams {
		obs = []dtnsim.Observer{
			dtnsim.NewStreamObserver(&run.series, false),
			dtnsim.NewStreamObserver(&run.events, true),
		}
	}
	if tr == nil {
		cfg.Observers = append(cfg.Observers, obs...)
		res, err := dtnsim.Run(cfg)
		run.res = res
		return run, err
	}

	id := tr.begin("core.run", parent, op)
	var src *tracedSource
	if cfg.Source != nil {
		src = &tracedSource{ContactSource: cfg.Source, tr: tr}
		cfg.Source = src
	}
	var traced []*tracedObserver
	for _, o := range obs {
		t := &tracedObserver{inner: o, tr: tr}
		traced = append(traced, t)
		cfg.Observers = append(cfg.Observers, t)
	}
	// core.samples: no Result field carries the sample count.
	cfg.Observers = append(cfg.Observers, &core.FuncObserver{Sample: func(dtnsim.MetricSample) { run.samples++ }})
	var be *tracedBackend
	if cfg.Backend != nil {
		be = &tracedBackend{inner: cfg.Backend, tr: tr, conn: conn, parent: id, op: op}
		cfg.Backend = be
	}
	res, err := dtnsim.Run(cfg)
	if src != nil {
		src.m.flush(tr, "mobility.next", id, op)
		run.contacts = src.contacts
	}
	for i, t := range traced {
		t.m.flush(tr, [2]string{"report.series", "report.events"}[i], id, op)
	}
	if be != nil {
		be.occ.flush(tr, "dist.node_occupancy", id, op)
		run.epochs, run.items = be.epochs, be.items
	}
	tr.end(id)
	run.res = res
	return run, err
}

// engineLayers turns the spans runEngine records into the per-layer
// metrics of mobility, core and report. Times are seconds per run,
// counts are per run.
func engineLayers(layer map[string]float64, tot map[string]*layerTotals, c counters, contacts int64) {
	run := tot["core.run"]
	if run == nil || run.Spans == 0 {
		return
	}
	n := float64(run.Spans)
	sec := func(ns int64) float64 { return float64(ns) / 1e9 / n }
	runS := sec(run.Busy)
	layer["core.run_s"] = runS
	layer["core.self_s"] = sec(run.Self)
	layer["core.self_share"] = sec(run.Self) / runS
	layer["core.transmissions"] = float64(c.Transmissions) / n
	layer["core.deliveries"] = float64(c.Deliveries) / n
	layer["core.drops"] = float64(c.Drops) / n
	layer["core.samples"] = float64(c.Samples) / n
	if contacts > 0 {
		layer["mobility.contacts"] = float64(contacts) / n
		layer["core.ns_per_contact"] = float64(run.Self) / float64(contacts)
		layer["core.tx_per_contact"] = float64(c.Transmissions) / float64(contacts)
	}
	if next := tot["mobility.next"]; next != nil {
		layer["mobility.next_busy_s"] = sec(next.Busy)
		layer["mobility.busy_share"] = sec(next.Busy) / runS
		if next.Busy > 0 {
			layer["mobility.contacts_per_s"] = float64(contacts) / (float64(next.Busy) / 1e9)
		}
	}
	var reportBusy int64
	for _, name := range []string{"report.series", "report.events"} {
		if t := tot[name]; t != nil {
			reportBusy += t.Busy
		}
	}
	if reportBusy > 0 {
		layer["report.stream_busy_s"] = sec(reportBusy)
		layer["report.busy_share"] = sec(reportBusy) / runS
	}
}
