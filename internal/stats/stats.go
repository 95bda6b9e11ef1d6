// Package stats provides the streaming latency statistics used by the
// evaluation harness: log-scaled histograms with quantile extraction and
// CDF export, matching what the paper reports (throughput tables for
// Figure 5, latency CDFs for Figure 6).
//
// The histogram is HDR-style: values below 16 ns get exact buckets, and
// every power-of-two range above is split into 16 linear sub-buckets, so a
// quantile is off by at most one sub-bucket (~6%) anywhere from 16 ns to
// 2^49 ns (~6.5 days) — more than enough resolution to distinguish a 60 ns
// local acquisition from a 2 µs verb or a 400 µs congested tail.
//
// A Hist's 736 bucket counts (5.75 KiB) are allocated on its first sample,
// so a histogram nothing is recorded into costs only its header. The
// counts are shared by copies: do not copy a Hist after its first Add;
// combine histograms with Merge.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

const (
	subBits    = 4 // 16 linear sub-buckets per power of two
	subBuckets = 1 << subBits
	maxExp     = 48 // values up to 2^(maxExp+1) ns (~6.5 days) are representable
	// Buckets 0..subBuckets-1 hold the exact tiny values; every power-of-two
	// range [2^e, 2^(e+1)) for e in subBits..maxExp then contributes
	// subBuckets linear sub-buckets, contiguously. Larger values clamp into
	// the top bucket.
	numBuckets = (maxExp - subBits + 2) * subBuckets
)

// Hist is a streaming histogram of non-negative int64 samples (typically
// latencies in nanoseconds). The zero value is ready to use and allocates
// nothing until its first sample.
type Hist struct {
	counts []int64 // numBuckets entries once a sample is recorded, nil before
	n      int64
	sum    int64
	min    int64
	max    int64
}

// bucketOf maps a sample to its bucket index. The mapping is contiguous:
// values below subBuckets land in their own exact buckets 0..subBuckets-1,
// and the range [2^exp, 2^(exp+1)) for exp >= subBits lands in the
// subBuckets indices starting at (exp-subBits+1)*subBuckets — so bucket
// subBuckets (the first inexact one) is exactly value 2^subBits, with no
// dead gap in between. bucketLow is its exact inverse on bucket lows.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v) // exact for tiny values
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	// Position within the power-of-two range [2^exp, 2^(exp+1)).
	frac := (v - (1 << uint(exp))) >> uint(exp-subBits)
	idx := (exp-subBits+1)*subBuckets + int(frac)
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest value mapping to bucket i (used as the
// representative value for quantiles; midpoint would also work, lows keep
// quantiles conservative).
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := i/subBuckets + subBits - 1
	frac := int64(i % subBuckets)
	return (int64(1) << uint(exp)) + frac<<uint(exp-subBits)
}

// Add records one sample.
func (h *Hist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if h.counts == nil {
		h.counts = make([]int64, numBuckets)
	}
	h.counts[bucketOf(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Merge adds all of o's samples into h; h keeps its own counts.
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]int64, numBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Count returns the number of samples.
func (h *Hist) Count() int64 { return h.n }

// Mean returns the exact sample mean (tracked outside the buckets).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min returns the smallest recorded sample (0 if empty).
func (h *Hist) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 if empty).
func (h *Hist) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the approximate q-quantile (0 <= q <= 1).
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Point is one point of an empirical CDF: fraction F of samples were
// <= ValueNS.
type Point struct {
	ValueNS int64
	F       float64
}

// CDF exports the empirical distribution as one point per non-empty
// bucket, suitable for plotting Figure 6-style curves.
func (h *Hist) CDF() []Point {
	if h.n == 0 {
		return nil
	}
	var pts []Point
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		pts = append(pts, Point{ValueNS: bucketLow(i), F: float64(cum) / float64(h.n)})
	}
	// Pin the last point to the true max.
	if len(pts) > 0 {
		pts[len(pts)-1].ValueNS = h.max
	}
	return pts
}

// Summary is the compact latency digest reported per experiment.
type Summary struct {
	Count  int64
	MeanNS float64
	MinNS  int64
	P50NS  int64
	P90NS  int64
	P99NS  int64
	P999NS int64
	MaxNS  int64
}

// Summarize extracts a Summary from the histogram.
func (h *Hist) Summarize() Summary {
	return Summary{
		Count:  h.n,
		MeanNS: h.Mean(),
		MinNS:  h.Min(),
		P50NS:  h.Quantile(0.50),
		P90NS:  h.Quantile(0.90),
		P99NS:  h.Quantile(0.99),
		P999NS: h.Quantile(0.999),
		MaxNS:  h.Max(),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.0fns p50=%dns p99=%dns max=%dns",
		s.Count, s.MeanNS, s.P50NS, s.P99NS, s.MaxNS)
}

// QuantileOfSorted computes an exact quantile from a sorted slice — the
// reference implementation the histogram is tested against.
func QuantileOfSorted(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Exact is a simple exact-quantile accumulator for tests and small runs.
type Exact struct {
	vals   []int64
	sorted bool
}

// Add records a sample.
func (e *Exact) Add(v int64) {
	e.vals = append(e.vals, v)
	e.sorted = false
}

// Quantile returns the exact q-quantile.
func (e *Exact) Quantile(q float64) int64 {
	if !e.sorted {
		sort.Slice(e.vals, func(i, j int) bool { return e.vals[i] < e.vals[j] })
		e.sorted = true
	}
	return QuantileOfSorted(e.vals, q)
}

// Count returns the number of samples.
func (e *Exact) Count() int { return len(e.vals) }
