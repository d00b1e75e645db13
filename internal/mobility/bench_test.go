package mobility

import (
	"runtime"
	"testing"
)

// The schedule-memory benchmark pair behind cmd/benchguard's memory
// gate: 5k-node subscriber-point mobility materialized
// (contact.Materialize over the model's Stream, what a caller who needs
// the whole Schedule pays) versus streamed. benchguard enforces (from
// BENCH_hotpath.json) that the materialized path allocates and retains
// at least min_ratio times more than the streaming path — the
// O(#contacts) → O(nodes) claim as a regression gate. Measured 46x
// allocated bytes/op and 10.8x resident bytes (the streaming source
// holds O(nodes) state — about 1 MB for 5000 nodes — while the
// materialized schedule retains all ~279k contacts); the committed
// floors (10x bytes, 6x resident) are deliberately conservative, so
// contact-count drift cannot flake the gate while streaming memory
// creeping toward O(#contacts) still collapses them. The pair measured
// 65.6x while the materialized side was a separate whole-span
// generator; that generator is now a test-side reference.
//
// Both benchmarks also report "resident-B": the heap bytes still live
// (after GC) while the run's contact plan is held — the peak schedule
// residency a simulation pays. The materialized plan retains every
// contact; the streaming plan retains per-node generator state.

// bench5k is the 5k-node scenario: 100 km² keeps 2000 points legal
// under the paper's 100/km² density bound, and the span is long enough
// that the contact count (hundreds of thousands) dwarfs the node
// count — the regime the O(nodes)-vs-O(#contacts) gate is about.
func bench5k() SubscriberPointRWP {
	return SubscriberPointRWP{Nodes: 5000, Points: 2000, AreaSide: 10000, Span: 200000, Seed: 1}
}

// residentDelta reports the live-heap growth of build, with the
// returned value kept reachable, as the "resident-B" metric.
func residentDelta(b *testing.B, build func() any) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc), "resident-B")
	} else {
		b.ReportMetric(0, "resident-B")
	}
	runtime.KeepAlive(keep)
}

func BenchmarkScheduleMaterialized5k(b *testing.B) {
	g := bench5k()
	b.ReportAllocs()
	var contacts int
	for i := 0; i < b.N; i++ {
		s, err := materialized(g.Stream())
		if err != nil {
			b.Fatal(err)
		}
		contacts = len(s.Contacts)
	}
	b.StopTimer()
	b.ReportMetric(float64(contacts), "contacts")
	residentDelta(b, func() any {
		s, err := materialized(g.Stream())
		if err != nil {
			b.Fatal(err)
		}
		return s
	})
}

func BenchmarkScheduleStreaming5k(b *testing.B) {
	g := bench5k()
	b.ReportAllocs()
	var contacts int
	for i := 0; i < b.N; i++ {
		src, err := g.Stream()
		if err != nil {
			b.Fatal(err)
		}
		contacts = 0
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			contacts++
		}
		if err := src.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(contacts), "contacts")
	// Residency mid-stream: the source half drained, as the engine
	// would hold it.
	residentDelta(b, func() any {
		src, err := g.Stream()
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < contacts/2; i++ {
			if _, ok := src.Next(); !ok {
				break
			}
		}
		return src
	})
}

// BenchmarkClassicStream5k drains the 5k-node constant-density cell of
// the scale axis (the root package's BenchmarkShardedRun5k* scenario
// and bench/'s scale5k_stream) with no engine behind it: the developer
// tool for classic_stream.go. Run it with -benchmem; steady-state
// allocations are slice growth and the per-node RNGs, nothing per
// contact. It is not a benchguard pair.
func BenchmarkClassicStream5k(b *testing.B) {
	g := ClassicRWP{Nodes: 5000, AreaSide: 14142, Span: 2500, Range: 100, SampleDT: 25, Seed: 1}
	b.ReportAllocs()
	var contacts int
	for i := 0; i < b.N; i++ {
		src, err := g.Stream()
		if err != nil {
			b.Fatal(err)
		}
		contacts = 0
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			contacts++
		}
	}
	b.ReportMetric(float64(contacts), "contacts")
}

// BenchmarkClassicStreamGeometries drains the classic source over the
// grid shapes its step has to serve, one sub-benchmark each: the scale
// cell, the loaded and churning cells of the digest test, 100k nodes
// on a 633-column grid, a sparse cell whose side is widened past Range,
// a dense 2×2 grid, and a one-cell grid where every node sees every
// other. A change to the step's scan or to release is read row by row:
// none of the shapes may get slower.
func BenchmarkClassicStreamGeometries(b *testing.B) {
	for _, tc := range []struct{ name, spec string }{
		{"scale5k", "rwp:nodes=5000,area=14142,span=2500,range=100,dt=25"},
		{"loaded1k", "rwp:nodes=1000,area=6325,span=20000,range=100,dt=25"},
		{"churn400", "rwp:nodes=400,area=2000,span=3000,range=250,dt=7"},
		{"nodes100k", "rwp:nodes=100000,area=63246,span=200,range=100,dt=25"},
		{"widened3k", "rwp:nodes=3000,area=200000,span=20000,range=400,dt=25"},
		{"fourcell", "rwp:nodes=300,area=300,span=3000,range=160,dt=10"},
		{"onecell", "rwp:nodes=300,area=150,span=3000,range=160,dt=10"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			parsed, err := Parse(tc.spec)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var contacts int
			for i := 0; i < b.N; i++ {
				src, err := parsed.Stream(1)
				if err != nil {
					b.Fatal(err)
				}
				contacts = 0
				for _, ok := src.Next(); ok; _, ok = src.Next() {
					contacts++
				}
			}
			b.ReportMetric(float64(contacts), "contacts")
		})
	}
}
