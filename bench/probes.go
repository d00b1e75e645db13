package main

import (
	"time"

	"dtnsim/internal/buffer"
	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/dist/frame"
	"dtnsim/internal/metrics"
	"dtnsim/internal/sim"
)

// Probes time one layer's public API directly, where no seam lets a
// decorator see the layer at work inside a run.

// perCall times fn over enough repetitions to dwarf the clock's own cost
// and returns nanoseconds per call.
func perCall(reps int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps)
}

// bufferProbe times the store operations every contact pays, on a full
// paper-sized (10-bundle) store.
func bufferProbe(layer map[string]float64) {
	mk := func(seq int) *bundle.Copy {
		return &bundle.Copy{
			Bundle: &bundle.Bundle{ID: bundle.ID{Src: 1, Seq: seq}, Dst: 2, Meta: bundle.Meta{Size: 1000}},
			Expiry: sim.Infinity,
		}
	}
	s := buffer.New(10)
	s.SetByteCap(10_000)
	for seq := 1; seq <= 9; seq++ {
		if err := s.Put(mk(seq)); err != nil {
			panic(err) // nine 1000-byte copies fit a 10-slot, 10000-byte store
		}
	}
	churn := mk(5000)
	layer["buffer.put_remove_ns"] = perCall(200_000, func() {
		_ = s.Put(churn) // fits: checked above
		s.Remove(churn.Bundle.ID)
	})
	n := 0
	layer["buffer.range_ns"] = perCall(200_000, func() {
		s.Range(func(*bundle.Copy) bool { n++; return true })
	})
	fits := 0
	layer["buffer.byte_room_ns"] = perCall(1_000_000, func() {
		if s.FitsBytes(1000) && s.Free() > 0 {
			fits++
		}
	})
	if n == 0 || fits == 0 {
		panic("buffer probe measured nothing")
	}
}

// metricsProbe times the sampling tick at the 5k-node scale.
func metricsProbe(layer map[string]float64) {
	const nodes = 5000
	t := metrics.NewHolderTracker()
	for seq := 1; seq <= 30; seq++ {
		id := bundle.ID{Src: contact.NodeID(seq), Seq: seq}
		t.Track(id)
		for h := 0; h < seq; h++ {
			t.Inc(id)
		}
	}
	occ := func(i int) float64 { return float64(i%10) / 10 }
	var sink float64
	ns := perCall(2000, func() { sink += t.SampleFunc(nodes, occ, 1000).Occupancy })
	if sink == 0 {
		panic("metrics probe measured nothing")
	}
	layer["metrics.sample_ns_per_node"] = ns / nodes
}

// frameProbe pushes the frames tee'd off the worker connection in the
// traced pass back through the codec: decode what arrived, re-encode
// what was decoded.
func frameProbe(layer map[string]float64, frames [][]byte) error {
	if len(frames) == 0 {
		return nil
	}
	var bytes int
	msgs := make([]*frame.Msg, len(frames))
	const reps = 5
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i, f := range frames {
			m, err := frame.Decode(f)
			if err != nil {
				return err
			}
			msgs[i] = m
		}
	}
	decode := time.Since(t0)
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, m := range msgs {
			b, err := frame.Encode(m)
			if err != nil {
				return err
			}
			bytes += len(b)
		}
	}
	encode := time.Since(t0)
	kb := float64(bytes) / 1024
	layer["frame.decode_ns_per_kb"] = float64(decode.Nanoseconds()) / kb
	layer["frame.encode_ns_per_kb"] = float64(encode.Nanoseconds()) / kb
	layer["frame.mean_bytes"] = float64(bytes) / float64(reps*len(frames))
	return nil
}
