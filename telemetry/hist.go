package telemetry

// Percentile latencies. Mean wait/hold figures hide exactly the behavior
// an operator tunes for — the p99 acquisition that sat through a writer
// drain — so sampled latencies also land in HDR-style log-bucketed
// histograms: bucket i counts samples whose duration has i significant
// bits of nanoseconds, i.e. [2^(i-1), 2^i) ns. ~2× resolution over 12
// orders of magnitude in histBuckets counters, no configuration, and
// recording is a bits.Len64 plus one striped atomic add.
//
// The block follows the rw lane block's footprint discipline (DESIGN.md
// §9): it hangs off the stats behind one atomic pointer and is allocated
// lazily on the first *timed* sample, so the overwhelming majority of
// locks — anything with fewer than a sample period's worth of arrivals on
// a lane — pays 8 bytes, not the ~2KB of bucket arrays. Writes happen only
// on sampled acquisitions (1 in SamplePeriod), so two stripes are enough
// to keep concurrent samplers off each other's lines.

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count: log2(ns) up to 2^39ns ≈ 9 minutes, with
// the last bucket absorbing everything longer.
const histBuckets = 40

// histStripes is the write-striping factor. Histogram writes are already
// sampled; two stripes cover the common case of a waiter and the holder
// recording simultaneously.
const histStripes = 2

// bucketOf maps a duration to its bucket: the number of significant bits
// in the nanosecond count, clamped to the table. 0ns lands in bucket 0.
func bucketOf(ns uint64) int {
	b := bits.Len64(ns)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketValue is the representative duration of bucket i, used when
// reporting percentiles: the geometric middle of [2^(i-1), 2^i), i.e.
// 1.5·2^(i-1), so a report never claims more precision than ~±50%.
func bucketValue(i int) time.Duration {
	if i <= 0 {
		return time.Duration(1)
	}
	return time.Duration(3 << (i - 1) >> 1)
}

// latHist is one striped log-bucketed histogram.
type latHist struct {
	counts [histStripes][histBuckets]atomic.Uint64
}

// record adds one sample. tok is the caller's stripe token.
func (h *latHist) record(tok uint64, d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[tok&(histStripes-1)][bucketOf(uint64(d))].Add(1)
}

// sum collapses the stripes into one bucket array, trimmed of trailing
// zeros (nil when empty) — the snapshot/JSON form.
func (h *latHist) sum() []uint64 {
	var raw [histBuckets]uint64
	last := -1
	for s := 0; s < histStripes; s++ {
		for i := 0; i < histBuckets; i++ {
			if v := h.counts[s][i].Load(); v != 0 {
				raw[i] += v
				if i > last {
					last = i
				}
			}
		}
	}
	if last < 0 {
		return nil
	}
	out := make([]uint64, last+1)
	copy(out, raw[:last+1])
	return out
}

// histBlock carries every histogram of one lock: writer-side wait and
// hold, reader-side wait for RW locks. One lazy allocation covers all
// three — a lock hot enough to sample one is hot enough to sample the
// others.
type histBlock struct {
	wait  latHist
	hold  latHist
	rwait latHist
}

// histb returns the lock's histogram block, allocating it on first use.
// Only timed (sampled) paths call this, so the allocation happens at most
// once per sample-period-worth of arrivals and never on the plain path.
func (s *LockStats) histb() *histBlock {
	if h := s.hist.Load(); h != nil {
		return h
	}
	s.hist.CompareAndSwap(nil, new(histBlock))
	return s.hist.Load()
}

// histPercentile walks a summed bucket array to the p-th percentile
// (0 < p < 100), returning the bucket's representative value. Zero when
// the histogram is empty.
func histPercentile(buckets []uint64, p float64) time.Duration {
	var total uint64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	// Rank of the percentile sample, 1-based, ceiling: p50 of 2 samples is
	// the 1st, p99 of 100 samples the 99th.
	rank := uint64(float64(total)*p/100 + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i, c := range buckets {
		cum += c
		if cum >= rank {
			return bucketValue(i)
		}
	}
	return bucketValue(len(buckets) - 1)
}

// addBuckets accumulates src into dst element-wise (retired folding, lane
// merging), growing dst as needed.
func addBuckets(dst, src []uint64) []uint64 {
	if len(src) > len(dst) {
		grown := make([]uint64, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// subBuckets is element-wise sub0 (for Diff), trimmed like latHist.sum.
func subBuckets(cur, prev []uint64) []uint64 {
	if len(cur) == 0 {
		return nil
	}
	out := make([]uint64, len(cur))
	last := -1
	for i, v := range cur {
		var p uint64
		if i < len(prev) {
			p = prev[i]
		}
		out[i] = sub0(v, p)
		if out[i] != 0 {
			last = i
		}
	}
	if last < 0 {
		return nil
	}
	return out[:last+1]
}
