package mobility

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestClassicStreamDigests pins six whole classic-RWP streams — the
// 5k-node scale cell, the 1000-node loaded cell the replay benchmarks
// materialize, a dense churning cell, a 100k-node short-span cell (633
// grid columns), a sparse cell whose cell side is widened past Range,
// and a one-cell grid — by an FNV-64a digest over every contact, two
// seeds each. The first three were computed on the stream as it stood
// before its close buckets became recycled chunks, the last three
// before the grid scan visited each neighbouring cell pair once, so any
// reordering, dropped or duplicated contact, or moved end time since
// then fails here, at populations no reference can afford.
func TestClassicStreamDigests(t *testing.T) {
	for _, tc := range []struct {
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
	} {
		parsed, err := Parse(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		src, err := parsed.Stream(tc.seed)
		if err != nil {
			t.Fatal(err)
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
		if n != tc.contacts || h.Sum64() != tc.digest {
			t.Errorf("%s seed %d: %d contacts, digest %#016x; want %d, %#016x", tc.spec, tc.seed, n, h.Sum64(), tc.contacts, tc.digest)
		}
	}
}
