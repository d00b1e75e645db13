package report

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/metrics"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// awkward are the values whose %g spelling switches form: integers on
// both sides of the exponent threshold, a fraction that needs all its
// digits, the smallest and largest magnitudes, and the engine's
// Infinity.
var awkward = []float64{
	0, 1, 100000, 1e+06, 1e21, 1e-7, 0.1, 123456789.125, 2.5e-05,
	math.MaxFloat64, math.SmallestNonzeroFloat64, float64(sim.Infinity), math.Inf(1), -3.75,
}

const maxInt = math.MaxInt

// TestStreamRowsMatchFmt holds every row kind byte-equal to the
// fmt.Sprintf format the Stream used before it built rows with
// strconv — the format strings here are that oracle — over awkward
// times, delays and sample values and the widest node and sequence
// numbers.
func TestStreamRowsMatchFmt(t *testing.T) {
	ids := []bundle.ID{{Src: 0, Seq: 0}, {Src: 7, Seq: 42}, {Src: maxInt, Seq: maxInt}, {Src: 3, Seq: -1}}
	nodes := []contact.NodeID{0, 11, maxInt}
	fmtID := func(id bundle.ID) string { return fmt.Sprintf("%d:%d", id.Src, id.Seq) }
	var got, want bytes.Buffer
	s := NewStream(&got, true)
	want.WriteString("time,event,node,peer,bundle,detail,occupancy,duplication\n")
	for i, f := range awkward {
		now := sim.Time(f)
		id, n := ids[i%len(ids)], nodes[i%len(nodes)]
		peer := nodes[(i+1)%len(nodes)]
		delay := awkward[(i+3)%len(awkward)]

		s.OnGenerate(id, n, now)
		fmt.Fprintf(&want, "%g,generate,%d,%d,%s,,,\n", float64(now), id.Src, n, fmtID(id))
		s.OnTransmit(n, peer, id, now)
		fmt.Fprintf(&want, "%g,transmit,%d,%d,%s,,,\n", float64(now), n, peer, fmtID(id))
		s.OnDeliver(id, n, delay, now)
		fmt.Fprintf(&want, "%g,deliver,%d,,%s,%g,,\n", float64(now), n, fmtID(id), delay)
		for _, reason := range node.DropReasons() {
			s.OnDrop(n, id, reason, now)
			fmt.Fprintf(&want, "%g,drop,%d,,%s,%s,,\n", float64(now), n, fmtID(id), reason)
		}
		sm := metrics.Sample{Now: now, Occupancy: delay, Duplication: f}
		s.OnSample(sm)
		fmt.Fprintf(&want, "%g,sample,,,,,%g,%g\n", float64(sm.Now), sm.Occupancy, sm.Duplication)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
		for i := range wl {
			if i >= len(gl) || !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("row %d diverged from the fmt oracle:\n got: %s\nwant: %s", i, gl[min(i, len(gl)-1)], wl[i])
			}
		}
		t.Fatalf("stream has %d rows, oracle %d", len(gl), len(wl))
	}
}

// TestStreamSampleTailReuse: a sample row whose occupancy and
// duplication repeat the previous row's bits reuses its formatted tail,
// and the rows stay byte-equal to the fmt oracle through repeats,
// changes and values equal as floats but not as bits (0 and -0).
func TestStreamSampleTailReuse(t *testing.T) {
	values := [][2]float64{
		{0, 0}, {0, 0}, {0.25, 0}, {0.25, 0}, {0.25, 1.0 / 3}, {0.25, 1.0 / 3},
		{math.Copysign(0, -1), 0}, {0, 0}, {0, math.Copysign(0, -1)}, {math.NaN(), 0.5}, {math.NaN(), 0.5}, {0.25, 0.5},
	}
	var got, want bytes.Buffer
	s := NewStream(&got, false)
	want.WriteString("time,event,node,peer,bundle,detail,occupancy,duplication\n")
	for i, v := range values {
		sm := metrics.Sample{Now: sim.Time(100 * i), Occupancy: v[0], Duplication: v[1]}
		s.OnSample(sm)
		fmt.Fprintf(&want, "%g,sample,,,,,%g,%g\n", float64(sm.Now), sm.Occupancy, sm.Duplication)
	}
	if got.String() != want.String() {
		t.Errorf("sample rows:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

// TestStreamSamplesOnly: with events off only the header and sample
// rows appear.
func TestStreamSamplesOnly(t *testing.T) {
	var buf bytes.Buffer
	s := NewStream(&buf, false)
	id := bundle.ID{Src: 1, Seq: 2}
	s.OnGenerate(id, 3, 10)
	s.OnTransmit(1, 3, id, 20)
	s.OnDeliver(id, 3, 10, 20)
	s.OnDrop(3, id, node.DropRefused, 30)
	s.OnSample(metrics.Sample{Now: 40, Occupancy: 0.25, Duplication: 0.5})
	const want = "time,event,node,peer,bundle,detail,occupancy,duplication\n40,sample,,,,,0.25,0.5\n"
	if buf.String() != want {
		t.Errorf("samples-only stream = %q, want %q", buf.String(), want)
	}
}

// countingWriter counts Writes and bytes and fails from the failAt-th
// Write on (0 = never).
type countingWriter struct {
	writes, bytes int
	failAt        int
}

var errDiskFull = errors.New("disk full")

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.failAt > 0 && w.writes >= w.failAt {
		return 0, errDiskFull
	}
	w.bytes += len(p)
	return len(p), nil
}

// TestStreamRowsAllocateNothing: once the row buffer has grown, every
// row kind is one Write and zero allocations.
func TestStreamRowsAllocateNothing(t *testing.T) {
	w := &countingWriter{}
	s := NewStream(w, true)
	id := bundle.ID{Src: 123456, Seq: 987654}
	rows := map[string]func(){
		"generate": func() { s.OnGenerate(id, 4321, 123456789.125) },
		"transmit": func() { s.OnTransmit(1234, 4321, id, 123456789.125) },
		"deliver":  func() { s.OnDeliver(id, 4321, 98765.4321, 123456789.125) },
		"drop":     func() { s.OnDrop(4321, id, node.DropBytePressure, 123456789.125) },
		"sample": func() {
			s.OnSample(metrics.Sample{Now: 123456789.125, Occupancy: 0.123456789, Duplication: 0.987654321})
		},
	}
	for name, row := range rows {
		row() // grow the buffer to this row's length
		before := w.writes
		if allocs := testing.AllocsPerRun(100, row); allocs != 0 {
			t.Errorf("%s row allocates %v/op, want 0", name, allocs)
		}
		if got := w.writes - before; got != 101 {
			t.Errorf("%s: %d Writes for 101 rows, want one per row", name, got)
		}
	}
}

// TestStreamStickyError: the first failed Write stops all further
// output and Err reports it.
func TestStreamStickyError(t *testing.T) {
	w := &countingWriter{failAt: 3}
	s := NewStream(w, true) // Write 1: header
	id := bundle.ID{Src: 1, Seq: 2}
	s.OnGenerate(id, 3, 10) // Write 2
	if s.Err() != nil {
		t.Fatalf("Err before the failure = %v", s.Err())
	}
	good := w.bytes
	s.OnTransmit(1, 3, id, 20) // Write 3 fails
	if !errors.Is(s.Err(), errDiskFull) {
		t.Fatalf("Err = %v, want %v", s.Err(), errDiskFull)
	}
	s.OnDeliver(id, 3, 10, 20)
	s.OnDrop(3, id, node.DropExpired, 30)
	s.OnSample(metrics.Sample{Now: 40})
	s.OnGenerate(id, 3, 50)
	if w.writes != 3 || w.bytes != good {
		t.Errorf("after the failure: %d Writes, %d bytes; want 3 Writes, %d bytes", w.writes, w.bytes, good)
	}
	if !errors.Is(s.Err(), errDiskFull) {
		t.Errorf("Err = %v, want the first error to stick", s.Err())
	}

	// A writer that fails on the header silences the whole stream.
	w = &countingWriter{failAt: 1}
	s = NewStream(w, false)
	s.OnSample(metrics.Sample{Now: 1})
	if w.writes != 1 || !errors.Is(s.Err(), errDiskFull) {
		t.Errorf("header failure: %d Writes, Err = %v", w.writes, s.Err())
	}
}

// TestAppendFloatMatchesShortestG holds appendFloat's integer fast path
// to strconv's shortest 'g' form on its edges (signed zeros, the ±1e6
// cut-over, large integers, fractions, NaN and infinities) and on
// random integers either side of the cut-over.
func TestAppendFloatMatchesShortestG(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 999999, -999999, 1e6, -1e6, 1e6 + 1, -1e6 - 1,
		1 << 53, -(1 << 53), 1e21, -1e21, 0.5, -0.5, 999999.5, -999999.5, 1e-7, 123.25,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	r := rand.New(rand.NewPCG(7, 38))
	for i := 0; i < 100000; i++ {
		vals = append(vals, float64(r.Int64N(4e6)-2e6))
	}
	for _, v := range vals {
		want := strconv.AppendFloat(nil, v, 'g', -1, 64)
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %q, want %q", v, got, want)
		}
	}
}
