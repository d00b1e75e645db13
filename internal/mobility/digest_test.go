package mobility

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

// classicDigests pins six whole classic-RWP streams — the 5k-node scale
// cell, the 1000-node loaded cell the replay benchmarks materialize, a
// dense churning cell, a 100k-node short-span cell (633 grid columns),
// a sparse cell whose cell side is widened past Range, and a one-cell
// grid — by an FNV-64a digest over every contact, two seeds each. The
// first three were computed on the stream as it stood before its close
// buckets became recycled chunks, the last three before the grid scan
// visited each neighbouring cell pair once, so any reordering, dropped
// or duplicated contact, or moved end time since then fails, at
// populations no reference can afford.
var classicDigests = []struct {
	spec     string
	seed     uint64
	contacts int
	digest   uint64
}{
	{"rwp:nodes=5000,area=14142,span=2500,range=100,dt=25", 2012, 171093, 0xe5c623ec9fe98bb3},
	{"rwp:nodes=5000,area=14142,span=2500,range=100,dt=25", 77, 168427, 0xbcf2414420089b2c},
	{"rwp:nodes=1000,area=6325,span=20000,range=100,dt=25", 2012, 186537, 0x8c7fe93817340478},
	{"rwp:nodes=1000,area=6325,span=20000,range=100,dt=25", 77, 186498, 0x355a9163a6920fa5},
	{"rwp:nodes=400,area=2000,span=3000,range=250,dt=7", 2012, 82222, 0xf9416ecd59816762},
	{"rwp:nodes=400,area=2000,span=3000,range=250,dt=7", 77, 84797, 0x5e82d9baac531812},
	{"rwp:nodes=100000,area=63246,span=200,range=100,dt=25", 2012, 246158, 0x8773be224da2570f}, // cols=633
	{"rwp:nodes=100000,area=63246,span=200,range=100,dt=25", 77, 246427, 0x9f0952b7c212dcb6},
	{"rwp:nodes=3000,area=200000,span=20000,range=400,dt=25", 2012, 15505, 0x85306ea693ba3464}, // side widened to 1290
	{"rwp:nodes=3000,area=200000,span=20000,range=400,dt=25", 77, 15465, 0x460a580b5222ad6b},
	{"rwp:nodes=300,area=150,span=3000,range=160,dt=10", 2012, 49730, 0xff274c63842b761f}, // one column
	{"rwp:nodes=300,area=150,span=3000,range=160,dt=10", 77, 50699, 0x440aa1471652a3dc},
}

// streamDigest drains a spec's stream for a seed and returns its
// contact count and FNV-64a digest over every contact. It may run on
// any goroutine: a spec that fails is reported, and digests to zero.
func streamDigest(t *testing.T, spec string, seed uint64) (int, uint64) {
	t.Helper()
	parsed, err := Parse(spec)
	if err != nil {
		t.Error(err)
		return 0, 0
	}
	src, err := parsed.Stream(seed)
	if err != nil {
		t.Error(err)
		return 0, 0
	}
	h := fnv.New64a()
	var buf [40]byte
	n := 0
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(c.A))
		binary.LittleEndian.PutUint64(buf[8:], uint64(c.B))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(float64(c.Start)))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(float64(c.End)))
		binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(c.Bandwidth))
		h.Write(buf[:])
		n++
	}
	return n, h.Sum64()
}

// TestClassicStreamDigests drains every pinned stream at GOMAXPROCS 1,
// where one helper and the merge stage take turns on one processor, and
// at 2 and 4, where two helpers position and search steps beside the
// merge stage, whatever the machine's core count. Neither the lookahead
// nor the helper count may be visible.
func TestClassicStreamDigests(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range classicDigests {
			if n, digest := streamDigest(t, tc.spec, tc.seed); n != tc.contacts || digest != tc.digest {
				t.Errorf("GOMAXPROCS %d, %s seed %d: %d contacts, digest %#016x; want %d, %#016x",
					procs, tc.spec, tc.seed, n, digest, tc.contacts, tc.digest)
			}
		}
	}
}

// TestClassicStreamConcurrentDrains drains four pinned streams at once,
// so that four sources' helpers and consumers interleave (under -race,
// every hand-off is checked).
func TestClassicStreamConcurrentDrains(t *testing.T) {
	var wg sync.WaitGroup
	for _, tc := range classicDigests[4:6:6] {
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if n, digest := streamDigest(t, tc.spec, tc.seed); n != tc.contacts || digest != tc.digest {
					t.Errorf("%s seed %d: %d contacts, digest %#016x; want %d, %#016x", tc.spec, tc.seed, n, digest, tc.contacts, tc.digest)
				}
			}()
		}
	}
	wg.Wait()
}

// TestClassicStreamAbandonedLeavesNoGoroutine: a source dropped after
// one contact has its helpers at most lookahead steps from exiting, and
// nothing to wait on, so twenty abandoned 5k-node sources leave no
// goroutine behind — with one helper, and with two in flight under
// GOMAXPROCS(2).
func TestClassicStreamAbandonedLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	before := runtime.NumGoroutine()
	for seed := range uint64(20) {
		runtime.GOMAXPROCS(1 + int(seed%2))
		src, err := ClassicRWP{Nodes: 5000, AreaSide: 14142, Span: 2500, Range: 100, SampleDT: 25, Seed: seed}.Stream()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := src.Next(); !ok {
			t.Fatalf("seed %d: no contact", seed)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after abandoning 20 sources, %d before", n, before)
	}
}
