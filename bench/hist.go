package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of nanosecond durations: unit-wide buckets
// below 256 ns, then 128 buckets per octave (< 0.8 % wide). Adding is O(1)
// and allocation-free, so the measured loop can feed it; percentiles are
// interpolated inside the bucket they land in, which keeps a 60 ns median
// from collapsing onto the timer's 1 ns grid.
type hist struct {
	n      uint64
	max    int64
	lo, hi int // touched bucket range, so merge and reset stay cheap
	b      [histBuckets]uint32
}

const (
	histSubBits = 7
	histLinear  = 1 << (histSubBits + 1)                   // 256 unit buckets
	histMaxExp  = 32                                       // covers 2^40 ns ≈ 18 min
	histBuckets = histLinear + histMaxExp*(1<<histSubBits) // 4352
)

func newHist() *hist { return &hist{lo: histBuckets} }

func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histLinear {
		return int(v)
	}
	s := bits.Len64(uint64(v)) - (histSubBits + 1)
	if s > histMaxExp {
		return histBuckets - 1
	}
	return histLinear + (s-1)<<histSubBits + int(v>>uint(s)) - 1<<histSubBits
}

// histBounds returns bucket i's lower edge and width in ns.
func histBounds(i int) (lo, width float64) {
	if i < histLinear {
		return float64(i), 1
	}
	s := (i-histLinear)>>histSubBits + 1
	m := (i-histLinear)&(1<<histSubBits-1) + 1<<histSubBits
	return float64(uint64(m) << uint(s)), float64(uint64(1) << uint(s))
}

func (h *hist) add(v int64) {
	i := histIndex(v)
	h.b[i]++
	h.n++
	if v > h.max {
		h.max = v
	}
	if i < h.lo {
		h.lo = i
	}
	if i > h.hi {
		h.hi = i
	}
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	for i := o.lo; i <= o.hi; i++ {
		h.b[i] += o.b[i]
	}
	h.n += o.n
	h.max = max(h.max, o.max)
	h.lo = min(h.lo, o.lo)
	h.hi = max(h.hi, o.hi)
}

func (h *hist) reset() {
	if h.n == 0 {
		return
	}
	clear(h.b[h.lo : h.hi+1])
	h.n, h.max, h.lo, h.hi = 0, 0, histBuckets, 0
}

// quantile returns the q-quantile in ns (0 for an empty histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i := h.lo; i <= h.hi; i++ {
		c := float64(h.b[i])
		if c > 0 && cum+c >= rank {
			lo, w := histBounds(i)
			return lo + (rank-cum)/c*w
		}
		cum += c
	}
	return float64(h.max)
}

// median returns the median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quantileOf is the linearly interpolated q-quantile of xs.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of its median, the quartiles taken as Python's
// statistics.quantiles(xs, n=4) takes them (the exclusive method), which is
// how the benchmark driver measures run-to-run spread.
func quartileSpread(xs []float64) float64 {
	n, m := len(xs), median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// iqrShare is the interquartile range of xs as a share of its median.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (quantileOf(xs, 0.75) - quantileOf(xs, 0.25)) / math.Abs(m)
}
