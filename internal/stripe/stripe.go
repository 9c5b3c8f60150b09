// Package stripe provides a lazily-striped counter for hot-path presence
// accounting.
//
// GLK counts the goroutines at each lock (arriving, waiting, or holding) to
// measure contention. A single atomic counter makes that measurement itself
// a scalability bottleneck: every arrival and departure is a read-modify-
// write on one shared cache line, so the line ping-pongs between all cores
// touching the lock and defeats the local-spinning guarantee of the queue
// locks it is supposed to be observing (DESIGN.md §4). A striped counter
// splits the count across several cache-line-sized cells; each goroutine
// updates "its" cell, chosen by a cheap per-goroutine hash, so updates from
// different cores usually touch different lines. Only Sum — called by the
// lock holder once every sampling period — reads all cells.
//
// Striping costs footprint: NumStripes cache lines per counter, which a
// table with millions of fine-grained keys cannot afford when the
// overwhelming majority of its locks never see a second goroutine
// (DESIGN.md §8). A Counter is therefore lazy: it starts as one inline
// cell (16 bytes including the spill pointer) and inflates to a
// heap-allocated stripe array only when its owner reports contention via
// Inflate. Updates before inflation hit the inline cell; updates after land
// in the stripes. The two phases may split one goroutine's paired +1/−1
// across the inline cell and a stripe, which is fine: Sum reads both, and
// only the total is meaningful.
//
// Inflation has an inverse, Deflate, for owners whose contention was a
// phase, not a steady state: the spill is detached (new updates go back to
// the inline cell), every stripe is closed with a CAS-installed sentinel so
// stragglers that still hold the old pointer divert to the inline cell, and
// the captured stripe totals are folded into the inline cell. The round trip
// is sum-exact: every delta lands exactly once, in the stripe total the
// folder captured or in the inline cell.
//
// A Counter is exact modulo 2⁶³: a stripe keeps its total with bit 63 clear,
// so no count a stripe reaches can ever read as Deflate's sentinel, and Sum
// and the fold sign-extend from bit 62. A presence count never comes near the
// difference; an owner that packs an arrival clock above a 32-bit count (the
// glk reader-writer lock adds 2³² + 1 per reader) gets a clock that wraps at
// 31 bits beside an exact count.
//
// The trade-off is exactly the one the paper makes for sampling in general:
// writes must be cheap and uncoordinated, reads may be expensive and
// slightly stale.
package stripe

import (
	"math"
	"sync/atomic"
	"unsafe"

	"gls/internal/pad"
)

// NumStripes is the number of independent cells in an inflated counter. It
// is a power of two so cell selection is a mask. Eight cells are enough to
// spread the arrival traffic of far more cores than eight, because a stripe
// is only contended when two simultaneously-arriving goroutines hash to the
// same cell.
const NumStripes = 8

// cellClosed is the sentinel a Deflate installs in each stripe of a
// detached spill. It is never a real count — an open stripe keeps bit 63
// clear (cellMask) — so an updater that reads it knows the stripe is dead
// and diverts to the inline cell. A closed stripe never reopens —
// re-inflation allocates a fresh spill.
const cellClosed = math.MinInt64

// cellMask keeps an open stripe's total modulo 2⁶³. Without it a stripe
// whose owner packs a clock above the count (see the package comment) would
// read cellClosed after 2³¹ arrivals with nobody present.
const cellMask = math.MaxInt64

// wrap sign-extends a total kept modulo 2⁶³ from bit 62.
func wrap(v int64) int64 { return v << 1 >> 1 }

// cell is one stripe: a counter alone on its cache line.
type cell struct {
	n atomic.Int64
	_ [pad.CacheLineSize - 8]byte
}

// addGet CASes delta into the stripe and returns the new stripe total
// (modulo 2⁶³), reporting false when the stripe is closed (the caller must
// divert to the inline cell). The CAS loop replaces a plain atomic add so
// closing is linearizable: every delta is captured either by the close (it
// landed before the sentinel was installed) or by the caller's inline
// fallback — never both, never neither. Uncontended, the CAS costs the same
// line ownership as the add it replaced; contended retries are rare by
// construction (striping exists to keep simultaneous updaters on different
// cells).
func (c *cell) addGet(delta int64) (int64, bool) {
	for {
		v := c.n.Load()
		if v == cellClosed {
			return 0, false
		}
		if nv := (v + delta) & cellMask; c.n.CompareAndSwap(v, nv) {
			return nv, true
		}
	}
}

// close installs the sentinel and returns the stripe's final total.
func (c *cell) close() int64 {
	for {
		v := c.n.Load()
		if c.n.CompareAndSwap(v, cellClosed) {
			return v
		}
	}
}

// spill is the inflated form: one line-sized cell per stripe.
type spill struct {
	cells [NumStripes]cell
}

// SpillBytes is the heap cost a Counter pays on first inflation, for
// footprint accounting (glsbench -cardinality).
const SpillBytes = unsafe.Sizeof(spill{})

// Counter is a lazily-striped int64 counter. The zero value is ready to use
// and reads zero. Deflated it is a single inline cell plus a nil spill
// pointer — embed it where the owner already pays for the line (both words
// are written per update, so they must not share a line with data other
// goroutines spin on once the counter is expected to stay deflated).
// Inflate spreads all future updates over NumStripes private lines.
type Counter struct {
	inline atomic.Int64
	// spill is the *spill, held as an unsafe.Pointer updated with the
	// atomic intrinsics rather than atomic.Pointer[spill]: the intrinsic
	// load is cheap enough in the inliner's accounting that Add and AddGet
	// stay inlinable into lock hot paths (the generic wrapper pushed them
	// 3 points over budget, a real ~2ns/op call penalty on every
	// uncontended acquisition).
	spill unsafe.Pointer
}

// loadSpill reads the current spill pointer (nil while deflated).
func (c *Counter) loadSpill() *spill { return (*spill)(atomic.LoadPointer(&c.spill)) }

// Self returns the calling goroutine's stripe token. Add calls with the
// same token hit the same cell, so a goroutine that reuses its token works
// on one private line.
//
// The token is derived from the address of a stack variable: distinct
// goroutines have distinct stacks, so they land on different (well-mixed)
// tokens, while calls from one goroutine at similar stack depths agree. The
// address is right-shifted so that frames within ~1KiB of each other — the
// same logical call site before and after a stack growth, or lock and
// unlock paths of one goroutine — usually produce the same token. There is
// no correctness requirement on the distribution: any token sequence yields
// an exact Sum, a poor spread merely costs some sharing.
//
// The conversion to uintptr inside the expression keeps the marker from
// escaping, so Self does not allocate (asserted by TestSelfDoesNotAllocate).
// Self is called on every lock acquisition, so the mixing is deliberately
// minimal: one Fibonacci-hash multiply and a shift, which is enough to
// spread the few surviving stack bits over the low bits Add masks (a full
// finalizer costs a measurable ~2ns per acquisition for no better spread
// across 8 stripes).
func Self() uint64 {
	var marker byte
	h := uint64(uintptr(unsafe.Pointer(&marker)) >> 10)
	return (h * 0x9e3779b97f4a7c15) >> 32
}

// Add adds delta to the cell selected by token — the inline cell while the
// counter is deflated, a stripe afterwards. It performs one atomic update on
// one cache line and never spins, blocks, or allocates. (A stripe update is
// a CAS rather than a raw add so Deflate can close stripes exactly; see
// cell.add. An updater racing a Deflate may touch a second line — the
// closed stripe, then the inline cell — once, during the transition.)
//
// An updater that read the spill pointer as nil, was preempted across an
// Inflate, and then decrements through a stripe leaves the inline cell and
// that stripe individually non-zero; Sum still reads the exact total, which
// is the only value with meaning.
func (c *Counter) Add(token uint64, delta int64) {
	// Structured to stay within the compiler's inlining budget: the
	// deflated fast path is a load, a branch, and an xadd, and the
	// inflated path reuses the inlinable cell CAS. The uncontended arrival
	// is exactly the case that must not pay a function call
	// (BenchmarkHotPathUncontended is the bar).
	if atomic.LoadPointer(&c.spill) == nil {
		c.inline.Add(delta)
		return
	}
	c.addGetSlow(token, delta)
}

// AddGet is Add returning the post-update value of the cell it landed in —
// the inline cell's running total while the counter is deflated, a single
// stripe's (individually meaningless) total afterwards. The deflated return
// value is what makes cheap owner-free contention detection possible: a
// deflated presence count that reads ≥2 after an increment proves two
// goroutines are at the lock right now, with no extra loads (the add already
// owns the line). Callers must not ascribe meaning to the inflated return
// value beyond "some stripe moved".
func (c *Counter) AddGet(token uint64, delta int64) int64 {
	if atomic.LoadPointer(&c.spill) == nil {
		return c.inline.Add(delta)
	}
	return c.addGetSlow(token, delta)
}

// addGetSlow is the inflated path: update the token's stripe, diverting to
// the inline cell when a Deflate closed it after the caller loaded the
// spill pointer (both loads of c.spill here and in the fast path may
// legitimately disagree; each update lands exactly once either way).
func (c *Counter) addGetSlow(token uint64, delta int64) int64 {
	if sp := c.loadSpill(); sp != nil {
		if v, ok := sp.cells[token&(NumStripes-1)].addGet(delta); ok {
			return v
		}
	}
	return c.inline.Add(delta)
}

// Sum returns the total across the stripes (once inflated) and the inline
// cell. Concurrent Adds may or may not be observed; the result is exact
// once updaters are quiescent. An inflated Sum reads NumStripes+1 cache
// lines, so callers should amortize it (GLK calls it once per SamplePeriod
// critical sections, from the lock holder).
//
// The read order — spill pointer, stripes, inline cell LAST — is
// load-bearing for the one-sided guarantee the RW drains build on: a
// single Sum may transiently overcount against concurrent paired updates,
// but never undercount, provided (a) a +1/−1 pair whose +1 lands in the
// inline cell keeps its −1 at or after the +1 in real time (trivially true:
// program order), and (b) counter owners serialize Deflate with Sums whose
// exactness matters (the documented Deflate contract). The hazard this
// kills: an updater that loaded a nil spill pointer, was preempted across
// an Inflate, and lands +1 in the inline cell mid-Sum while its paired −1
// lands in a stripe. Reading inline first could miss that +1 yet count the
// −1 (net −1: a reader-writer drain would believe a still-present reader
// gone); reading inline last means a missed +1 happened after every
// stripe read, so the later −1 is missed too and the pair nets zero.
// Overcounts (+1 counted, −1 missed) merely make a drain re-poll.
func (c *Counter) Sum() int64 {
	var s int64
	if sp := c.loadSpill(); sp != nil {
		for i := range sp.cells {
			if v := sp.cells[i].n.Load(); v != cellClosed {
				s += v
			}
		}
	}
	return wrap(s + c.inline.Load())
}

// Inflate switches the counter to its striped form, allocating the stripe
// array on first call; later calls are no-ops. Callers invoke it when the
// counter's owner first observes contention (GLK: a sampled queue with more
// than the holder present), from any goroutine — publication is a CAS, and
// updates racing the inflation stay exact (see Add).
func (c *Counter) Inflate() {
	if c.loadSpill() != nil {
		return
	}
	atomic.CompareAndSwapPointer(&c.spill, nil, unsafe.Pointer(new(spill)))
}

// Inflated reports whether Add has switched to the striped form.
func (c *Counter) Inflated() bool { return c.loadSpill() != nil }

// Deflate folds an inflated counter back into its inline cell, releasing
// the spill's SpillBytes to the collector, and reports whether it deflated
// (false when already deflated). Owners call it when the contention that
// justified inflation has passed — GLK after several fully-uncontended
// adaptation periods — reclaiming the footprint that lazy inflation exists
// to protect (DESIGN.md §8).
//
// The fold is sum-exact under concurrent Adds: the spill is detached first
// (updates that load the pointer afterwards go inline), then every stripe
// is closed by CAS-swapping in a sentinel, capturing its final total; a
// straggler that loaded the old pointer before the detach either lands its
// CAS before the close (captured in the total) or observes the sentinel and
// diverts to the inline cell. The captured totals are then added to the
// inline cell in one shot, sign-extended, so a deflated AddGet keeps
// returning the true running total.
//
// Sum calls concurrent with the fold may transiently miss in-flight
// captured totals (exactness holds once the fold returns); callers whose
// correctness depends on Sum — a writer draining readers, GLK's queue
// sampling — must therefore serialize Deflate with those reads, which costs
// nothing in practice: both run on the owner/holder side already.
func (c *Counter) Deflate() bool {
	sp := c.loadSpill()
	if sp == nil {
		return false
	}
	if !atomic.CompareAndSwapPointer(&c.spill, unsafe.Pointer(sp), nil) {
		return false // raced another Deflate
	}
	var total int64
	for i := range sp.cells {
		total += sp.cells[i].close()
	}
	if total = wrap(total); total != 0 {
		c.inline.Add(total)
	}
	return true
}
