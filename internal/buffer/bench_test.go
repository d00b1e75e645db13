package buffer

// Per-operation benchmarks for the store hot path: the operations every
// contact pays (Free, in-order iteration, the no-op PurgeExpired fast
// path) and the Put/Remove churn that maintains the index. After the
// indexed-store rework these fast paths must run with zero allocs/op —
// asserted by TestHotPathZeroAlloc and tracked by cmd/benchguard.

import (
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/sim"
)

// benchStore returns a store holding n unpinned copies (IDs 1..n) with
// far-future expiries, plus one pinned copy.
func benchStore(n int) *Store {
	s := New(n + 1)
	for i := 1; i <= n; i++ {
		c := mk(i)
		c.Expiry = sim.Time(1 << 40)
		if err := s.Put(c); err != nil {
			panic(err)
		}
	}
	p := mkPinned(n + 1)
	p.Expiry = sim.Infinity
	if err := s.Put(p); err != nil {
		panic(err)
	}
	return s
}

// BenchmarkStoreFree times the per-admission capacity check.
func BenchmarkStoreFree(b *testing.B) {
	s := benchStore(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.Free() < 0 {
			b.Fatal("impossible")
		}
	}
}

// BenchmarkStoreIterate times one in-order pass over all copies — the
// anti-entropy diff every contact starts from. Range walks the sorted
// index; before the indexed store this required Items(), which copied
// and sorted. BENCH_hotpath.json pair "store-iterate" gates its speedup
// over BenchmarkStoreItems at a conservative 12x (about half the
// measured ratio); it is also in 'zero_alloc', like StoreFree,
// StorePurgeExpiredIdle and StorePutRemove, whose pre-indexed-store
// numbers are kept under 'seed'.
func BenchmarkStoreIterate(b *testing.B) {
	s := benchStore(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		s.Range(func(*bundle.Copy) bool { n++; return true })
		if n != 11 {
			b.Fatal("wrong count")
		}
	}
}

// BenchmarkStoreItems times the allocating snapshot path kept for
// non-hot callers, as the paired reference for BenchmarkStoreIterate.
func BenchmarkStoreItems(b *testing.B) {
	s := benchStore(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(s.Items()) != 11 {
			b.Fatal("wrong count")
		}
	}
}

// BenchmarkStorePurgeExpiredIdle times PurgeExpired when nothing has
// lapsed — the common case paid twice per contact.
func BenchmarkStorePurgeExpiredIdle(b *testing.B) {
	s := benchStore(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.PurgeExpired(1000, func(bundle.ID) { b.Fatal("unexpected purge") })
	}
}

// BenchmarkStorePutRemove times the index-maintaining churn pair.
func BenchmarkStorePutRemove(b *testing.B) {
	s := benchStore(10)
	c := mk(999)
	c.Expiry = sim.Time(1 << 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Put(c); err != nil {
			b.Fatal(err)
		}
		if !s.Remove(c.Bundle.ID) {
			b.Fatal("remove failed")
		}
	}
}
