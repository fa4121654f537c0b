package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Quantile(0.5) != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty sample not all-zero: %v", s.String())
	}
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.N() != 5 || s.Mean() != 3 {
		t.Fatalf("n=%d mean=%v", s.N(), s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Quantile(0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
}

func TestSampleQuantileClamps(t *testing.T) {
	var s Sample
	s.Add(7)
	if s.Quantile(-1) != 7 || s.Quantile(2) != 7 {
		t.Fatal("quantile clamping broken")
	}
}

func TestSampleAddAfterQuery(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Quantile(0.5)
	s.Add(1) // must re-sort lazily
	if s.Min() != 1 {
		t.Fatalf("Min after post-query Add = %v", s.Min())
	}
}

func TestSampleQuantileOrderingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		for i := 0; i < 200; i++ {
			s.Add(rng.Float64() * 1000)
		}
		last := s.Quantile(0)
		for q := 0.1; q <= 1.0; q += 0.1 {
			v := s.Quantile(q)
			if v < last {
				return false
			}
			last = v
		}
		return s.Min() <= s.Mean() && s.Mean() <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
