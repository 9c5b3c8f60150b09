package stripe

import (
	"sync"
	"testing"
	"unsafe"

	"gls/internal/pad"
)

// TestLayout pins the footprint invariants of the lazy counter: deflated it
// is two words (the whole point — an idle lock pays 16 bytes, not 8 lines),
// and the spill keeps every stripe on a full private line.
func TestLayout(t *testing.T) {
	if s := unsafe.Sizeof(Counter{}); s != 16 {
		t.Errorf("deflated Counter is %d bytes, want 16 (inline cell + spill pointer)", s)
	}
	if s := unsafe.Sizeof(cell{}); s != pad.CacheLineSize {
		t.Errorf("cell is %d bytes, want exactly one %d-byte line", s, pad.CacheLineSize)
	}
	if s := unsafe.Sizeof(spill{}); s != NumStripes*pad.CacheLineSize {
		t.Errorf("spill is %d bytes, want %d", s, NumStripes*pad.CacheLineSize)
	}
	if NumStripes&(NumStripes-1) != 0 {
		t.Errorf("NumStripes = %d is not a power of two", NumStripes)
	}
}

// TestSumExact: the total is exact regardless of which cells absorbed the
// updates, deflated or inflated.
func TestSumExact(t *testing.T) {
	for _, inflated := range []bool{false, true} {
		var c Counter
		if inflated {
			c.Inflate()
		}
		for i := 0; i < 1000; i++ {
			c.Add(uint64(i), 1)
		}
		if got := c.Sum(); got != 1000 {
			t.Fatalf("inflated=%v: Sum = %d, want 1000", inflated, got)
		}
		for i := 0; i < 1000; i++ {
			c.Add(uint64(i)*0x9e3779b9, -1)
		}
		if got := c.Sum(); got != 0 {
			t.Fatalf("inflated=%v: Sum after drain = %d, want 0", inflated, got)
		}
	}
}

// TestInflateMidstream: updates recorded before inflation stay in the total,
// and decrements that land in stripes for increments that landed inline
// still cancel.
func TestInflateMidstream(t *testing.T) {
	var c Counter
	for i := 0; i < 10; i++ {
		c.Add(uint64(i), 1) // all inline
	}
	if c.Inflated() {
		t.Fatal("counter inflated before Inflate")
	}
	c.Inflate()
	if !c.Inflated() {
		t.Fatal("Inflate did not publish the spill")
	}
	if got := c.Sum(); got != 10 {
		t.Fatalf("Sum after inflation = %d, want 10 (inline contribution lost)", got)
	}
	for i := 0; i < 10; i++ {
		c.Add(uint64(i), -1) // all striped, paired with inline +1s
	}
	if got := c.Sum(); got != 0 {
		t.Fatalf("Sum after cross-phase drain = %d, want 0", got)
	}
	c.Inflate() // idempotent
	if got := c.Sum(); got != 0 {
		t.Fatalf("Sum after re-Inflate = %d, want 0", got)
	}
}

// TestConcurrentBalance: concurrent paired Add(+1)/Add(-1) always settles
// to zero, with tokens both stable and varying per goroutine, and with an
// inflation racing the updates.
func TestConcurrentBalance(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			tok := Self()
			for i := 0; i < 10000; i++ {
				c.Add(tok, 1)
				c.Add(seed+uint64(i), 2)
				if seed == 0 && i == 5000 {
					c.Inflate() // race the inflation against live updaters
				}
				c.Add(seed+uint64(i), -2)
				c.Add(tok, -1)
			}
		}(uint64(g) * 977)
	}
	wg.Wait()
	if got := c.Sum(); got != 0 {
		t.Fatalf("Sum = %d, want 0", got)
	}
	if !c.Inflated() {
		t.Fatal("counter not inflated after concurrent Inflate")
	}
}

// TestDeflateRoundTrip pins the satellite contract: inflate, spread updates
// over the stripes, deflate — the total survives the fold exactly, updates
// after deflation land inline again, and the counter can re-inflate onto a
// fresh (open) spill.
func TestDeflateRoundTrip(t *testing.T) {
	var c Counter
	if c.Deflate() {
		t.Fatal("Deflate on a deflated counter reported work")
	}
	for i := 0; i < 7; i++ {
		c.Add(uint64(i), 1) // inline
	}
	c.Inflate()
	for i := 0; i < 100; i++ {
		c.Add(uint64(i)*0x9e3779b9, 1) // striped
	}
	if got := c.Sum(); got != 107 {
		t.Fatalf("pre-deflate Sum = %d, want 107", got)
	}
	if !c.Deflate() {
		t.Fatal("Deflate on an inflated counter did nothing")
	}
	if c.Inflated() {
		t.Fatal("counter still inflated after Deflate")
	}
	if got := c.Sum(); got != 107 {
		t.Fatalf("post-deflate Sum = %d, want 107 (fold lost updates)", got)
	}
	if got := c.inline.Load(); got != 107 {
		t.Fatalf("inline cell = %d after fold, want the whole total 107", got)
	}
	for i := 0; i < 107; i++ {
		c.Add(uint64(i), -1) // inline again
	}
	if got := c.Sum(); got != 0 {
		t.Fatalf("Sum after post-deflate drain = %d, want 0", got)
	}
	c.Inflate() // the round trip must be repeatable
	if !c.Inflated() {
		t.Fatal("re-Inflate after Deflate failed")
	}
	c.Add(1, 5)
	if got := c.Sum(); got != 5 {
		t.Fatalf("Sum on the fresh spill = %d, want 5", got)
	}
}

// TestStragglerDivertsToInline exercises the closed-stripe fallback path
// directly: an updater that loaded the spill before a Deflate lands its
// delta in the inline cell, not the dead stripe.
func TestStragglerDivertsToInline(t *testing.T) {
	var c Counter
	c.Inflate()
	sp := c.loadSpill()
	c.Add(3, 1)
	if !c.Deflate() {
		t.Fatal("Deflate failed")
	}
	// Simulate the straggler: its CAS on the closed stripe must fail and
	// divert; the public path would re-load c.spill (nil) and go inline, so
	// drive the cell directly to prove the stripe itself refuses the update.
	if _, ok := sp.cells[3&(NumStripes-1)].addGet(1); ok {
		t.Fatal("closed stripe accepted an update")
	}
	c.Add(3, 1) // public path: inline
	if got := c.Sum(); got != 2 {
		t.Fatalf("Sum = %d, want 2", got)
	}
}

// TestConcurrentDeflate races paired +1/-1 updaters against repeated
// inflate/deflate cycles: the total must settle to zero no matter where the
// folds cut the update stream. Run with -race in CI.
func TestConcurrentDeflate(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				tok := seed + uint64(i)
				c.Add(tok, 1)
				c.Add(tok, -1)
			}
		}(uint64(g) * 1315423911)
	}
	cyclerDone := make(chan struct{})
	go func() {
		defer close(cyclerDone)
		for {
			select {
			case <-stop:
				return
			default:
				c.Inflate()
				c.Deflate()
			}
		}
	}()
	wg.Wait() // updaters
	close(stop)
	<-cyclerDone
	if got := c.Sum(); got != 0 {
		t.Fatalf("Sum after concurrent inflate/deflate churn = %d, want 0", got)
	}
}

// TestArrivalClockWraps drives one stripe's arrival clock across 2³¹
// arrivals: an owner that adds 2³² + 1 per arrival and −1 per departure (the
// glk reader-writer lock) would, unmasked, leave that stripe reading
// cellClosed once 2³¹ arrivals had come with nobody present. The stripe
// starts 64 arrivals short of the wrap (the state a long-lived key reaches,
// without making the two billion reads). Departures first leave through the
// arrival's stripe, which therefore passes through exactly 2³¹ arrivals with
// nobody present; then they alternate with another stripe, so one cell
// carries a count below zero. No open stripe may ever read the sentinel, the
// count half of Sum stays exact, its clock half exact modulo 2³¹, and a
// Deflate fold — with a reader present, after the wrap — keeps both.
func TestArrivalClockWraps(t *testing.T) {
	const arrival = 1<<32 + 1
	const start = 1<<31 - 64
	const tok, other = 3, 5
	var c Counter
	c.Inflate()
	c.loadSpill().cells[tok].n.Store(start << 32)
	clock := uint64(start)
	departure := func(i int) uint64 {
		if i < 128 || i%2 == 0 {
			return tok
		}
		return other
	}
	check := func(when string, present int64) {
		t.Helper()
		s := c.Sum()
		if got := int64(int32(s)); got != present {
			t.Fatalf("%s, clock %#x: count half reads %d, want %d (Sum %#x)", when, clock, got, present, s)
		}
		if got, want := uint64(s-int64(int32(s)))>>32&(1<<31-1), clock%(1<<31); got != want {
			t.Fatalf("%s: clock half reads %#x, want %#x (Sum %#x)", when, got, want, s)
		}
		if sp := c.loadSpill(); sp != nil {
			for i := range sp.cells {
				if sp.cells[i].n.Load() == cellClosed {
					t.Fatalf("%s, clock %#x: open stripe %d reads cellClosed", when, clock, i)
				}
			}
		}
	}
	check("preloaded", 0)
	for i := 0; i < 256; i++ {
		c.Add(tok, arrival)
		clock++
		check("after an arrival", 1)
		c.Add(departure(i), -1)
		check("after its departure", 0)
	}
	if clock < 1<<31 {
		t.Fatalf("clock %#x: the run did not cross the wrap", clock)
	}
	c.Add(tok, arrival) // a reader stays present across the fold
	clock++
	check("before the fold", 1)
	if !c.Deflate() {
		t.Fatal("Deflate failed")
	}
	check("after the fold", 1)
	c.Add(tok, -1)
	check("after the fold's reader left", 0)
	for i := 0; i < 4; i++ { // inline, then onto a fresh spill
		c.Add(tok, arrival)
		clock++
		c.Add(other, -1)
		check("inline", 0)
	}
	if got := c.AddGet(tok, arrival); int32(got) != 1 {
		t.Fatalf("deflated AddGet after the fold reads count %d, want 1 (value %#x)", int32(got), got)
	}
	clock++
	c.Inflate()
	c.Add(other, -1)
	check("re-inflated", 0)
}

// TestAddGetDeflatedIsGlobal pins the contention-detection contract: while
// deflated, AddGet returns the counter's running total, so a second
// concurrent arrival reads ≥2.
func TestAddGetDeflatedIsGlobal(t *testing.T) {
	var c Counter
	if got := c.AddGet(1, 1); got != 1 {
		t.Fatalf("first AddGet = %d, want 1", got)
	}
	if got := c.AddGet(0xdead, 1); got != 2 {
		t.Fatalf("second AddGet = %d, want 2 (deflated value must be global)", got)
	}
	c.Add(1, -1)
	c.Add(0xdead, -1)
}

// TestSelfStableWithinGoroutine: repeated calls from one goroutine at the
// same depth agree — the property that gives each goroutine a private line.
func TestSelfStableWithinGoroutine(t *testing.T) {
	a, b := Self(), Self()
	if a != b {
		t.Fatalf("Self() not stable within a goroutine: %#x vs %#x", a, b)
	}
}

// TestSelfDoesNotAllocate guards the hot path: a heap allocation per
// arrival would dwarf the saved coherence traffic. Inflate allocates once
// (the spill) and never again.
func TestSelfDoesNotAllocate(t *testing.T) {
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink = Self() }); n != 0 {
		t.Fatalf("Self allocates %.1f objects per call", n)
	}
	var c Counter
	if n := testing.AllocsPerRun(100, func() { c.Add(sink, 1) }); n != 0 {
		t.Fatalf("deflated Add allocates %.1f objects per call", n)
	}
	c.Inflate()
	if n := testing.AllocsPerRun(100, func() { c.Add(sink, 1) }); n != 0 {
		t.Fatalf("inflated Add allocates %.1f objects per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Inflate() }); n != 0 {
		t.Fatalf("repeated Inflate allocates %.1f objects per call", n)
	}
}

func BenchmarkAdd(b *testing.B) {
	var c Counter
	tok := Self()
	for i := 0; i < b.N; i++ {
		c.Add(tok, 1)
	}
}

func BenchmarkAddInflated(b *testing.B) {
	var c Counter
	c.Inflate()
	tok := Self()
	for i := 0; i < b.N; i++ {
		c.Add(tok, 1)
	}
}

func BenchmarkSelf(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = Self()
	}
	_ = sink
}

func BenchmarkAddParallel(b *testing.B) {
	var c Counter
	c.Inflate()
	b.RunParallel(func(pb *testing.PB) {
		tok := Self()
		for pb.Next() {
			c.Add(tok, 1)
		}
	})
}
