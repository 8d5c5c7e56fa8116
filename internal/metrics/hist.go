// Package metrics provides the lock-free latency instruments behind
// the RMI runtime's observability layer: log2-bucketed histograms with
// quantile derivation (p50/p95/p99), labeled families, gauges, and a
// Prometheus text exposition (`/metrics` in internal/obs).
//
// Everything on the record path is a single atomic add — no locks, no
// allocation — so histograms can sit on the RMI hot path when tracing
// is enabled without perturbing what they measure.
package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the bucket count of a Histogram. Bucket i counts
// observations in [2^i, 2^(i+1)) nanoseconds (bucket 0 absorbs values
// ≤ 1 ns); 44 buckets reach ~4.8 hours, far past any call phase.
const NumBuckets = 44

// Histogram is a lock-free log2-bucketed latency histogram. The zero
// value is ready to use; all methods are safe for concurrent use. A
// Histogram must not be copied after first use.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Int64
}

// bucketOf maps a value to its log2 bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v)) - 1
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketUpper returns the exclusive upper bound of bucket i in
// nanoseconds (the Prometheus `le` value of the bucket).
func BucketUpper(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1) << (i + 1)
}

// Observe records one value (nanoseconds). Negative values clamp to
// zero rather than corrupting the distribution.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
}

// HistSnapshot is a consistent-enough copy of a histogram for quantile
// math and exposition (counts are loaded bucket by bucket; a snapshot
// taken during concurrent recording may be mid-update by a few counts,
// which is fine for monitoring).
type HistSnapshot struct {
	Buckets [NumBuckets]uint64
	Sum     int64
	Total   uint64
}

// Snapshot copies the current bucket counts.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Total += c
	}
	s.Sum = h.sum.Load()
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) in nanoseconds by
// linear interpolation inside the covering bucket. It returns 0 for an
// empty histogram.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Total)
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo := float64(int64(1) << i)
			if i == 0 {
				lo = 0
			}
			hi := float64(BucketUpper(i))
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return float64(BucketUpper(NumBuckets - 1))
}

// Merge returns the element-wise sum of two snapshots. Because buckets
// are fixed log2 ranges shared by every histogram, merging is exact:
// recording a value stream into one histogram and recording a split of
// the same stream into two histograms then merging yield identical
// snapshots (same buckets, sum, total — hence identical quantiles).
// This is the basis of cluster-wide aggregation: nodes ship snapshots
// and any collector folds them without loss.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Sum += o.Sum
	s.Total += o.Total
	return s
}

// Mean returns the mean observation in nanoseconds (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Total)
}
