// Package stats provides the measurement primitive the evaluation
// uses: an exact-percentile sample collector for latency-style metrics.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample collects observations and answers mean/percentile queries
// exactly (it keeps all values; suitable for up to millions of points).
// The zero value is ready to use.
type Sample struct {
	values []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using the
// nearest-rank method; 0 when empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s.sort()
	idx := int(math.Ceil(q*float64(len(s.values)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.values[idx]
}

// Min and Max return the extremes (0 when empty).
func (s *Sample) Min() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[0]
}

// Max returns the largest observation (0 when empty).
func (s *Sample) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	s.sort()
	return s.values[len(s.values)-1]
}

// String summarizes the sample.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p99=%.2f max=%.2f",
		s.N(), s.Mean(), s.Quantile(0.5), s.Quantile(0.99), s.Max())
}
