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

// TestArrivalClockWraps drives an arrival clock across its 32-bit wrap: an
// owner that adds 2³² + 1 per arrival and −1 per departure (the glk
// reader-writer lock) keeps a count in the low 32 bits and a clock above
// it, and the clock's carry out of bit 63 is dropped by the int64 add. The
// clock starts 64 arrivals short of the wrap, in the inline cell (the state
// a long-lived key reaches, without making the four billion reads), and a
// reader arrives there and stays across the inflation and the wrap. The
// arrivals after it go to one stripe and their departures alternate with
// another, so cells carry counts below zero. The count half of Sum must
// stay exact throughout and the clock half exact modulo 2³².
func TestArrivalClockWraps(t *testing.T) {
	const arrival = 1<<32 + 1
	const start = 1<<32 - 64
	const tok, other = 3, 5
	var c Counter
	clock := uint64(start)
	c.inline.Store(int64(clock << 32))
	check := func(when string, present int64) {
		t.Helper()
		s := c.Sum()
		if got := int64(int32(s)); got != present {
			t.Fatalf("%s, clock %#x: count half reads %d, want %d (Sum %#x)", when, clock, got, present, s)
		}
		if got, want := uint32(uint64(s-int64(int32(s)))>>32), uint32(clock); got != want {
			t.Fatalf("%s: clock half reads %#x, want %#x (Sum %#x)", when, got, want, s)
		}
	}
	check("preloaded", 0)
	c.Add(other, arrival) // the reader that stays
	clock++
	check("reader present inline", 1)
	c.Inflate()
	check("inflated", 1)
	for i := 0; i < 256; i++ {
		c.Add(tok, arrival)
		clock++
		check("after an arrival", 2)
		dep := uint64(tok)
		if i%2 == 1 {
			dep = other
		}
		c.Add(dep, -1)
		check("after its departure", 1)
	}
	if clock < 1<<32 {
		t.Fatalf("clock %#x: the run did not cross the wrap", clock)
	}
	c.Add(other, -1) // the reader leaves through a stripe
	check("after the reader left", 0)
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
