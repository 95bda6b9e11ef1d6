// samplers.go provides the deterministic distribution samplers the
// open-loop lock-service layer (internal/cluster) draws its traffic from:
// exponential interarrival gaps for Poisson arrival processes, and Zipf
// popularity weights with a cumulative-weight picker for skewed key
// choice. Every sampler draws exclusively from a caller-supplied
// *rand.Rand, so the streams stay partitioned by sim.PartitionedRNG keys
// and runs replay bit-identically.
package stats

import (
	"math"
	"math/rand"
)

// ExpGapNS draws one exponential interarrival gap with the given mean, in
// nanoseconds. Successive draws from one stream form a Poisson process of
// rate 1e9/meanNS events per second. Gaps are clamped to >= 1 ns so an
// arrival always advances the virtual clock. A non-positive mean returns 1.
func ExpGapNS(rng *rand.Rand, meanNS float64) int64 {
	if meanNS <= 0 {
		return 1
	}
	// Inversion: -mean * ln(U) with U in (0, 1]. rand.Float64 returns
	// [0, 1), so flip it to (0, 1] to keep the log finite.
	gap := -meanNS * math.Log(1-rng.Float64())
	if gap < 1 {
		return 1
	}
	if gap > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(gap)
}

// ZipfWeights returns the normalized Zipf(s) popularity vector over n
// ranks: weight of rank r is proportional to 1/(r+1)^s, matching the rank
// convention of locktable.Skew (rank 0 is hottest). s == 0 returns the
// uniform vector; n <= 0 returns nil. s must otherwise be > 1, the same
// constraint the stdlib Zipf sampler enforces.
func ZipfWeights(n int, s float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	if s == 0 {
		for i := range w {
			w[i] = 1 / float64(n)
		}
		return w
	}
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Weighted picks indices with probability proportional to a fixed weight
// vector, by inverting the cumulative distribution with one Float64 draw
// per pick — the per-shard key sampler of the cluster layer (each shard
// holds the conditional distribution over its own keys).
type Weighted struct {
	cum []float64 // cum[i] = sum of weights 0..i, normalized to cum[n-1] == 1
}

// NewWeighted builds a picker over the given non-negative weights; weights
// need not be normalized. Returns nil if no weight is positive.
func NewWeighted(weights []float64) *Weighted {
	cum := make([]float64, len(weights))
	var sum float64
	for i, w := range weights {
		if w > 0 {
			sum += w
		}
		cum[i] = sum
	}
	if sum <= 0 {
		return nil
	}
	for i := range cum {
		cum[i] /= sum
	}
	return &Weighted{cum: cum}
}

// Pick draws one index from the weight distribution.
func (w *Weighted) Pick(rng *rand.Rand) int {
	u := rng.Float64()
	// Index i owns the half-open interval [cum[i-1], cum[i]), so a
	// zero-weight index (an empty interval) is never picked and u == 0
	// lands on the first positive-weight index. Float round-off on the
	// final cumulative sum could leave u >= cum[last]; clamp. (The binary
	// search is spelled out, with no predicate closure: arrival generators
	// pick from their executor-run loop function, which must not allocate;
	// harness.TestSteadyStateAllocsPerOp's service rows hold it to that.)
	i, end := 0, len(w.cum)
	for i < end {
		if mid := int(uint(i+end) >> 1); w.cum[mid] > u {
			end = mid
		} else {
			i = mid + 1
		}
	}
	if i >= len(w.cum) {
		i = len(w.cum) - 1
	}
	return i
}

// Len returns the number of weighted indices.
func (w *Weighted) Len() int { return len(w.cum) }
