package metrics

import "math"

// Histogram snapshots use a fixed log-scale bucket layout: BucketsPerDecade
// buckets per factor of ten, starting at HistBase microseconds. With 96
// buckets that spans 12 decades — 0.1µs to ~28h — which covers everything from
// a channel-cache hit to a stuck queue, in bounded memory (one uint64 per
// bucket), so a recorder never grows with traffic and snapshots merge by
// entrywise addition exactly like PoolStats.Merge.
const (
	// NumBuckets is the fixed bucket count of every Hist.
	NumBuckets = 96
	// BucketsPerDecade sets the log resolution: each bucket spans a factor
	// of 10^(1/8) ≈ 1.33, i.e. quantile estimates are within ~15% of truth.
	BucketsPerDecade = 8
	// HistBase is the upper bound of the growth law's bucket -1 in
	// microseconds; bucket 0 covers (0, HistBase·10^(1/8)].
	HistBase = 0.1
)

// bucketBounds[i] is the inclusive upper bound, in microseconds, of bucket i.
// The last bucket's bound is +Inf (catch-all).
var bucketBounds [NumBuckets]float64

func init() {
	for i := 0; i < NumBuckets-1; i++ {
		bucketBounds[i] = HistBase * math.Pow(10, float64(i+1)/BucketsPerDecade)
	}
	bucketBounds[NumBuckets-1] = math.Inf(1)
}

// BucketBound returns the inclusive upper bound of bucket i in microseconds
// (+Inf for the last bucket). It panics if i is out of range.
func BucketBound(i int) float64 { return bucketBounds[i] }

// BucketIndex maps a nonnegative value to its bucket.
func BucketIndex(v float64) int {
	if v <= HistBase {
		return 0
	}
	// Smallest i with v <= bounds[i], i.e. ceil(BPD·(log10 v − log10 base))−1.
	i := int(math.Ceil(BucketsPerDecade*(math.Log10(v)-math.Log10(HistBase)))) - 1
	if i < 0 {
		return 0
	}
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// Hist is an immutable histogram snapshot: per-bucket counts under the fixed
// log-scale layout plus the running sum and exact extrema. The zero value is
// an empty histogram. Snapshots merge by addition and travel as the value of
// a KindHistogram Sample.
type Hist struct {
	// Counts holds per-bucket observation counts; nil or length NumBuckets.
	Counts []uint64 `json:"counts,omitempty"`
	// Count is the total number of observations (== sum of Counts).
	Count uint64 `json:"count"`
	// Sum is the sum of observed values in microseconds (+Inf observations
	// contribute the largest finite bucket bound).
	Sum float64 `json:"sum"`
	// Min and Max are the exact observed extrema (0 when Count == 0).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Merge returns the entrywise aggregate of two snapshots, the multi-shard
// rollup operation (compare PoolStats.Merge).
func (h Hist) Merge(o Hist) Hist {
	if o.Count == 0 {
		return h
	}
	if h.Count == 0 {
		return o
	}
	out := Hist{
		Counts: make([]uint64, NumBuckets),
		Count:  h.Count + o.Count,
		Sum:    h.Sum + o.Sum,
		Min:    math.Min(h.Min, o.Min),
		Max:    math.Max(h.Max, o.Max),
	}
	for i := range out.Counts {
		if h.Counts != nil {
			out.Counts[i] += h.Counts[i]
		}
		if o.Counts != nil {
			out.Counts[i] += o.Counts[i]
		}
	}
	return out
}

// Mean returns Sum/Count, or NaN when empty.
func (h Hist) Mean() float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the p-th percentile (p in [0,100]) by geometric
// interpolation within the covering bucket, clamped to the exact observed
// extrema. Returns NaN when empty.
func (h Hist) Quantile(p float64) float64 {
	if h.Count == 0 || len(h.Counts) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return h.Min
	}
	if p >= 100 {
		return h.Max
	}
	rank := p / 100 * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		lo := h.Min
		if i > 0 {
			lo = math.Max(lo, bucketBounds[i-1])
		}
		hi := math.Min(h.Max, bucketBounds[i])
		if hi <= lo {
			return clamp(lo, h.Min, h.Max)
		}
		if math.IsInf(hi, 1) {
			return clamp(h.Max, h.Min, h.Max)
		}
		frac := (rank - prev) / float64(c)
		// Geometric interpolation matches the log-scale bucket widths.
		if lo <= 0 {
			return clamp(lo+(hi-lo)*frac, h.Min, h.Max)
		}
		return clamp(lo*math.Pow(hi/lo, frac), h.Min, h.Max)
	}
	return h.Max
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
