package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if !almost(w.Mean(), 5) {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Direct unbiased variance: sum((x-5)^2)/7 = 32/7.
	if !almost(w.Var(), 32.0/7.0) {
		t.Errorf("Var = %v, want %v", w.Var(), 32.0/7.0)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Error("empty accumulator not zero")
	}
	w.Add(42)
	if w.Mean() != 42 || w.Var() != 0 {
		t.Error("single observation stats wrong")
	}
}

// Property: Welford matches the two-pass computation on random samples.
func TestWelfordProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 17))
		n := r.IntN(200) + 2
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = r.Float64()*1000 - 500
			w.Add(xs[i])
		}
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		direct := ss / float64(n-1)
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.Var()-direct) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); !almost(got, c.want) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile not 0")
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}
