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
// Inflation is one-way: a counter stays striped for the rest of its life,
// so an inflated update is one atomic add on the token's stripe. Arithmetic
// wraps modulo 2⁶⁴, so an owner that packs an arrival clock above a 32-bit
// count (the glk reader-writer lock adds 2³² + 1 per reader) reads a clock
// that wraps at 32 bits beside an exact count.
//
// The trade-off is exactly the one the paper makes for sampling in general:
// writes must be cheap and uncoordinated, reads may be expensive and
// slightly stale.
package stripe

import (
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

// cell is one stripe: a counter alone on its cache line.
type cell struct {
	n atomic.Int64
	_ [pad.CacheLineSize - 8]byte
}

// spill is the inflated form: one line-sized cell per stripe.
type spill struct {
	cells [NumStripes]cell
}

// SpillBytes is the heap cost a Counter pays on first inflation, for
// footprint accounting (glsbench -cardinality).
const SpillBytes = unsafe.Sizeof(spill{})

// Counter is a lazily-striped int64 counter. The zero value is ready to use
// and reads zero. Until Inflate it is a single inline cell plus a nil spill
// pointer — embed it where the owner already pays for the line (both words
// are read per update, and the inline cell is written, so they must not
// share a line with data other goroutines spin on while the counter is
// expected to stay inline). Inflate spreads all future updates over
// NumStripes private lines.
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

// loadSpill reads the current spill pointer (nil until Inflate).
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

// Add adds delta to the cell selected by token — the inline cell until the
// counter inflates, a stripe afterwards. It is one atomic add on one cache
// line and never spins, blocks, or allocates.
//
// An updater that read the spill pointer as nil, was preempted across an
// Inflate, and then decrements through a stripe leaves the inline cell and
// that stripe individually non-zero; Sum still reads the exact total, which
// is the only value with meaning.
func (c *Counter) Add(token uint64, delta int64) {
	if sp := c.loadSpill(); sp != nil {
		sp.cells[token&(NumStripes-1)].n.Add(delta)
		return
	}
	c.inline.Add(delta)
}

// AddGet is Add returning the post-update value of the cell it landed in —
// the inline cell's running total until the counter inflates, a single
// stripe's (individually meaningless) total afterwards. The inline return
// value is what makes cheap owner-free contention detection possible: an
// inline presence count that reads ≥2 after an increment proves two
// goroutines are at the lock right now, with no extra loads (the add already
// owns the line). Callers must not ascribe meaning to the inflated return
// value beyond "some stripe moved".
func (c *Counter) AddGet(token uint64, delta int64) int64 {
	if sp := c.loadSpill(); sp != nil {
		return sp.cells[token&(NumStripes-1)].n.Add(delta)
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
// but never undercount, because a +1/−1 pair whose +1 lands in the inline
// cell keeps its −1 at or after the +1 in real time (program order). The
// hazard this kills: an updater that loaded a nil spill pointer, was
// preempted across an Inflate, and lands +1 in the inline cell mid-Sum
// while its paired −1 lands in a stripe. Reading inline first could miss
// that +1 yet count the −1 (net −1: a reader-writer drain would believe a
// still-present reader gone); reading inline last means a missed +1
// happened after every stripe read, so the later −1 is missed too and the
// pair nets zero. Overcounts (+1 counted, −1 missed) merely make a drain
// re-poll.
func (c *Counter) Sum() int64 {
	var s int64
	if sp := c.loadSpill(); sp != nil {
		for i := range sp.cells {
			s += sp.cells[i].n.Load()
		}
	}
	return s + c.inline.Load()
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
