package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEmptyHist(t *testing.T) {
	var h Hist
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty hist not all-zero")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile != 0")
	}
	if h.CDF() != nil {
		t.Fatal("empty CDF not nil")
	}
}

func TestSingleSample(t *testing.T) {
	var h Hist
	h.Add(1234)
	if h.Count() != 1 || h.Min() != 1234 || h.Max() != 1234 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count(), h.Min(), h.Max())
	}
	if h.Mean() != 1234 {
		t.Fatalf("mean = %f", h.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 1234 {
			t.Fatalf("Quantile(%f) = %d", q, got)
		}
	}
}

func TestSmallExactValues(t *testing.T) {
	// Values below 16 are bucketed exactly.
	var h Hist
	for v := int64(0); v < 16; v++ {
		h.Add(v)
	}
	if h.Quantile(0.001) != 0 || h.Max() != 15 {
		t.Fatal("small-value bucketing broken")
	}
}

func TestQuantileAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var h Hist
	var vals []int64
	for i := 0; i < 100000; i++ {
		// Log-uniform over 1ns..100ms, like a latency mixture.
		v := int64(halfToOne()*float64(uint64(1)<<r.Intn(27))) + 1
		h.Add(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		exact := QuantileOfSorted(vals, q)
		approx := h.Quantile(q)
		relErr := absF(float64(approx-exact)) / float64(exact)
		if relErr > 0.10 {
			t.Errorf("q=%v exact=%d approx=%d relErr=%.3f", q, exact, approx, relErr)
		}
	}
}

// halfToOne returns a pseudo-random float in [0.5, 1) from a package-level
// rng — small helper to keep the accuracy test log-uniform.
var mathRng = rand.New(rand.NewSource(7))

func halfToOne() float64 { return 0.5 + mathRng.Float64()/2 }

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestMerge(t *testing.T) {
	var a, b Hist
	for i := int64(1); i <= 100; i++ {
		a.Add(i * 10)
	}
	for i := int64(1); i <= 100; i++ {
		b.Add(i * 1000)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 10 || a.Max() != 100000 {
		t.Fatalf("merged min/max = %d/%d", a.Min(), a.Max())
	}
	wantMean := float64(10*5050+1000*5050) / 200
	if absF(a.Mean()-wantMean) > 1e-6 {
		t.Fatalf("merged mean = %f, want %f", a.Mean(), wantMean)
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	var a, b Hist
	b.Add(5)
	b.Add(7)
	a.Merge(&b)
	if a.Count() != 2 || a.Min() != 5 || a.Max() != 7 {
		t.Fatal("merge into empty broken")
	}
	var c Hist
	a.Merge(&c) // merging empty is a no-op
	if a.Count() != 2 {
		t.Fatal("merging empty changed count")
	}
}

// TestEmptyHistAllocatesNothing: a histogram nothing was recorded into costs
// only its header. Reading it and merging another empty one into it must not
// allocate the bucket counts, and the header must stay small enough that a
// struct holding several unused histograms stays small too.
func TestEmptyHistAllocatesNothing(t *testing.T) {
	var h, empty Hist
	allocs := testing.AllocsPerRun(100, func() {
		h.Merge(&empty)
		_ = h.Summarize()
		_ = h.CDF()
	})
	if allocs != 0 || h.counts != nil {
		t.Errorf("never-sampled Hist: %.0f allocs per read, counts allocated: %v", allocs, h.counts != nil)
	}
	if size := unsafe.Sizeof(Hist{}); size > 64 {
		t.Errorf("unsafe.Sizeof(Hist{}) = %d B, want at most 64", size)
	}
}

// TestMergeCopiesCounts: Merge copies the source's counts instead of taking
// them over, so a later Add to the source leaves the target as it was — also
// when the target had no counts of its own before the merge.
func TestMergeCopiesCounts(t *testing.T) {
	var src, dst Hist
	src.Add(100)
	dst.Merge(&src)
	for i := 0; i < 1000; i++ {
		src.Add(5000)
	}
	if cdf := dst.CDF(); len(cdf) != 1 || cdf[0] != (Point{ValueNS: 100, F: 1}) {
		t.Errorf("target CDF = %v after adds to the merge source, want [{100 1}]", cdf)
	}
	dst.Add(100)
	want := []Point{{ValueNS: 100, F: 1.0 / 1001}, {ValueNS: 5000, F: 1}}
	if cdf := src.CDF(); len(cdf) != 2 || cdf[0] != want[0] || cdf[1] != want[1] {
		t.Errorf("source CDF = %v after an add to the target, want %v", cdf, want)
	}
}

func TestCDFMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var h Hist
	for i := 0; i < 10000; i++ {
		h.Add(int64(r.Intn(1_000_000)))
	}
	pts := h.CDF()
	if len(pts) == 0 {
		t.Fatal("no CDF points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ValueNS < pts[i-1].ValueNS {
			t.Fatal("CDF values not sorted")
		}
		if pts[i].F < pts[i-1].F {
			t.Fatal("CDF fractions not monotone")
		}
	}
	if pts[len(pts)-1].F != 1.0 {
		t.Fatalf("final CDF fraction = %f", pts[len(pts)-1].F)
	}
	if pts[len(pts)-1].ValueNS != h.Max() {
		t.Fatal("final CDF point not pinned to max")
	}
}

func TestSummary(t *testing.T) {
	var h Hist
	for i := int64(1); i <= 1000; i++ {
		h.Add(i)
	}
	s := h.Summarize()
	if s.Count != 1000 || s.MinNS != 1 || s.MaxNS != 1000 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50NS < 450 || s.P50NS > 550 {
		t.Fatalf("p50 = %d", s.P50NS)
	}
	if s.P99NS < 900 || s.P99NS > 1000 {
		t.Fatalf("p99 = %d", s.P99NS)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestNegativeClamped(t *testing.T) {
	var h Hist
	h.Add(-5)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatal("negative sample not clamped to 0")
	}
}

// Property: for any sample set, histogram quantiles are within one bucket
// width (~6%) of exact quantiles, and min/max/count/mean are exact.
func TestQuickHistVsExact(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Hist
		vals := make([]int64, len(raw))
		var sum int64
		for i, r := range raw {
			v := int64(r)
			vals[i] = v
			sum += v
			h.Add(v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		if h.Count() != int64(len(vals)) || h.Min() != vals[0] || h.Max() != vals[len(vals)-1] {
			return false
		}
		if absF(h.Mean()-float64(sum)/float64(len(vals))) > 1e-6 {
			return false
		}
		for _, q := range []float64{0.25, 0.5, 0.75, 0.95} {
			exact := QuantileOfSorted(vals, q)
			approx := h.Quantile(q)
			if exact == 0 {
				if approx > 16 {
					return false
				}
				continue
			}
			relErr := absF(float64(approx-exact)) / float64(exact)
			if relErr > 0.0701 { // one sub-bucket of slack (1/16) plus rounding
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: bucketOf/bucketLow are consistent: bucketLow(bucketOf(v)) <= v
// and bucketing is monotone.
func TestQuickBucketMonotone(t *testing.T) {
	f := func(a, b uint64) bool {
		va, vb := int64(a>>16), int64(b>>16)
		ba, bb := bucketOf(va), bucketOf(vb)
		if bucketLow(ba) > va || bucketLow(bb) > vb {
			return false
		}
		if va <= vb && ba > bb {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Regression for the dead-gap bug: bucketOf used to send values 16..31 to
// index 64+, leaving buckets 16..63 unreachable and feeding bucketLow a
// negative-going shift count. The mapping must now be contiguous (no value
// skips more than one bucket going up by 1) and bucketLow must be the exact
// inverse of bucketOf on bucket lows.
func TestBucketMappingContiguousAndInverse(t *testing.T) {
	prev := bucketOf(0)
	if prev != 0 {
		t.Fatalf("bucketOf(0) = %d", prev)
	}
	for v := int64(1); v < 1<<12; v++ {
		b := bucketOf(v)
		if b != prev && b != prev+1 {
			t.Fatalf("bucket index jumped: bucketOf(%d)=%d after bucketOf(%d)=%d",
				v, b, v-1, prev)
		}
		if low := bucketLow(b); low > v {
			t.Fatalf("bucketLow(bucketOf(%d)) = %d > value", v, low)
		}
		prev = b
	}
	// Every bucket low must map back to its own bucket — the two functions
	// are inverse on representative values, so no bucket is unreachable.
	for i := 0; i < numBuckets-1; i++ {
		low := bucketLow(i)
		if got := bucketOf(low); got != i {
			t.Fatalf("bucketOf(bucketLow(%d)) = %d (low=%d)", i, got, low)
		}
		if next := bucketLow(i + 1); next <= low {
			t.Fatalf("bucket lows not increasing: low(%d)=%d low(%d)=%d", i, low, i+1, next)
		}
	}
}

// Property: Hist quantiles track Exact quantiles within one sub-bucket of
// relative error on ranges straddling the 2^subBits boundary, where the old
// mapping had its dead gap.
func TestQuickHistVsExactAcrossBoundary(t *testing.T) {
	f := func(raw []uint16, span uint8) bool {
		if len(raw) == 0 {
			return true
		}
		// Values in [0, 8..263]: tight ranges that straddle 16 = 2^subBits.
		limit := int64(span)%256 + 8
		var h Hist
		var ex Exact
		for _, r := range raw {
			v := int64(r) % limit
			h.Add(v)
			ex.Add(v)
		}
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			exact := ex.Quantile(q)
			approx := h.Quantile(q)
			if exact < subBuckets {
				// Exact buckets below 2^subBits: must match exactly.
				if approx != exact {
					return false
				}
				continue
			}
			relErr := absF(float64(approx-exact)) / float64(exact)
			if relErr > 0.0701 { // one sub-bucket (1/16) plus rounding
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExactAccumulator(t *testing.T) {
	var e Exact
	for _, v := range []int64{5, 1, 9, 3, 7} {
		e.Add(v)
	}
	if e.Count() != 5 {
		t.Fatalf("count = %d", e.Count())
	}
	if got := e.Quantile(0.5); got != 5 {
		t.Fatalf("median = %d", got)
	}
	if got := e.Quantile(0); got != 1 {
		t.Fatalf("q0 = %d", got)
	}
	if got := e.Quantile(1); got != 9 {
		t.Fatalf("q1 = %d", got)
	}
}
