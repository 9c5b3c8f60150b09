package gls

import (
	"sync"
	"testing"
	"time"

	"gls/locks"
)

// TestPinChurn runs the whole pin lifecycle from many goroutines over a few
// keys — Pin, lock, critical section, NextSeq, unlock, Unpin — with every
// zero pin count freeing its key, so incarnations turn over constantly
// under the lockers. The critical section is plain memory: the race
// detector and the inCS flags catch a second locker (one let in through a
// freed or a revived lock object), and the per-key sequence must rise
// across every one of those incarnations.
func TestPinChurn(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	const goroutines, keys = 8, 3
	iters := 4000
	if testing.Short() {
		iters = 1000
	}
	var (
		inCS    [keys]bool
		count   [keys]int
		lastSeq [keys]uint64
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % keys
				p := s.Pin(uint64(k + 1))
				if i%4 == 0 {
					if !p.TryLock() {
						p.Unpin()
						continue
					}
				} else if !p.LockCancel(nil) {
					t.Errorf("LockCancel(nil) gave up")
					p.Unpin()
					return
				}
				if inCS[k] {
					t.Errorf("key %d: two holders at once", k+1)
				}
				inCS[k] = true
				count[k]++
				if seq := p.NextSeq(); seq <= lastSeq[k] {
					t.Errorf("key %d: sequence %d after %d", k+1, seq, lastSeq[k])
				} else {
					lastSeq[k] = seq
				}
				inCS[k] = false
				p.Unlock()
				p.Unpin()
			}
		}(g)
	}
	wg.Wait()

	if got := s.Locks(); got != 0 {
		t.Errorf("Locks() = %d with every pin dropped, want 0", got)
	}
	books := s.ShardStats()[0]
	if creates, frees := books.Creates, books.Frees; creates != frees || frees <= keys {
		t.Errorf("creates = %d, frees = %d: want equal, and more than %d (keys must have turned over)", creates, frees, keys)
	}
	for k := range count {
		// Each key's sequence counts at least its own critical sections;
		// floor jumps only add.
		if uint64(count[k]) > lastSeq[k] {
			t.Errorf("key %d: %d critical sections but sequence only reached %d", k+1, count[k], lastSeq[k])
		}
		if got := s.Seq(uint64(k + 1)); got < lastSeq[k] {
			t.Errorf("key %d: Seq = %d at rest, below its last value %d", k+1, got, lastSeq[k])
		}
	}
}

// TestPinLockCancel walks one Cancel through what glsd asks of it: it bounds
// a wait by deadline and by its done channel, says which of the two fired,
// stays fired for the acquisitions after it (a batch stops there), and still
// lets a free lock be taken — the grant beats the abort.
func TestPinLockCancel(t *testing.T) {
	for _, algo := range []locks.Algorithm{locks.Mutex, locks.Ticket} {
		s := New(Options{})
		holder, waiter := s.PinWith(algo, 7), s.PinWith(algo, 7)
		free := s.PinWith(algo, 8)
		if !holder.TryLock() {
			t.Fatalf("%v: fresh key not acquirable", algo)
		}

		timed := &locks.Cancel{Deadline: time.Now().Add(20 * time.Millisecond)}
		if waiter.LockCancel(timed) || !timed.TimedOut() {
			t.Errorf("%v: deadline: acquired a held lock, or TimedOut = %v", algo, timed.TimedOut())
		}
		if !free.LockCancel(timed) {
			t.Errorf("%v: a fired Cancel kept a free lock from being taken", algo)
		}
		free.Unlock()

		done := make(chan struct{})
		closed := &locks.Cancel{Done: done, Deadline: time.Now().Add(time.Minute)}
		time.AfterFunc(20*time.Millisecond, func() { close(done) })
		if waiter.LockCancel(closed) || closed.TimedOut() {
			t.Errorf("%v: done: acquired a held lock, or TimedOut = %v", algo, closed.TimedOut())
		}
		if waiter.LockCancel(closed) {
			t.Errorf("%v: a fired Cancel waited out the holder", algo)
		}

		holder.Unlock()
		if !waiter.LockCancel(nil) {
			t.Errorf("%v: LockCancel(nil) gave up on a free lock", algo)
		}
		waiter.Unlock()
		for _, p := range []Pin{holder, waiter, free} {
			p.Unpin()
		}
		if got := s.Locks(); got != 0 {
			t.Errorf("%v: Locks() = %d with every pin dropped, want 0", algo, got)
		}
		s.Close()
	}
}

// TestPinDuringFreeTakesNextIncarnation stages the window inside the last
// Unpin — count already dead, entry still mapped — and checks that a Pin
// arriving there neither returns the dying entry nor revives it: it waits
// for the delete and pins a fresh object.
func TestPinDuringFreeTakesNextIncarnation(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	const key = 0xdead

	old := s.Pin(key)
	if !old.TryLock() {
		t.Fatal("fresh key not acquirable")
	}
	if seq := old.NextSeq(); seq != 1 {
		t.Fatalf("first sequence = %d, want 1", seq)
	}
	old.Unlock()
	// First half of the last Unpin.
	if !old.e.pins.CompareAndSwap(1, pinsDead) {
		t.Fatalf("pin count = %d, want 1", old.e.pins.Load())
	}

	pinned := make(chan Pin)
	go func() { pinned <- s.Pin(key) }()
	select {
	case p := <-pinned:
		t.Fatalf("Pin returned while the dying entry was still mapped (same entry: %v)", p.e == old.e)
	case <-time.After(50 * time.Millisecond):
	}
	if got := old.e.pins.Load(); got != pinsDead {
		t.Fatalf("late Pin revived the dying entry: count = %d", got)
	}

	// Second half: what Unpin does after marking the entry dead.
	s.seqFloor.Store(old.e.seq.Load())
	s.Free(key)
	var next Pin
	select {
	case next = <-pinned:
	case <-time.After(5 * time.Second):
		t.Fatal("Pin still waiting after the free completed")
	}
	if next.e == old.e {
		t.Fatal("Pin landed on the freed entry")
	}
	if !next.TryLock() {
		t.Fatal("next incarnation not acquirable")
	}
	if seq := next.NextSeq(); seq != 2 {
		t.Fatalf("next incarnation's first sequence = %d, want 2", seq)
	}
	next.Unlock()
	next.Unpin()
	if got := s.Locks(); got != 0 {
		t.Fatalf("Locks() = %d after the last Unpin, want 0", got)
	}
	if got := s.Seq(key); got != 2 {
		t.Fatalf("Seq of the freed key = %d, want the floor 2", got)
	}
}

// TestPinWithAlgorithm: a key's first PinWith creates the named algorithm;
// while the key stays mapped every later Pin or PinWith reuses that object
// whatever it names; the last Unpin frees it, so the next first use chooses
// again — and the key's sequence keeps rising through all of it.
func TestPinWithAlgorithm(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	const key = 0xa190

	first := s.PinWith(locks.Mutex, key)
	if first.e.inline() {
		t.Fatal("PinWith(Mutex) created a default key")
	}
	if _, ok := first.e.boxed().lock.(*locks.MutexLock); !ok || first.e.algo() != locks.Mutex {
		t.Fatalf("PinWith(Mutex) created %T (algo %v)", first.e.boxed().lock, first.e.algo())
	}
	for name, p := range map[string]Pin{"Pin": s.Pin(key), "PinWith(MCS)": s.PinWith(locks.MCS, key)} {
		if p.e != first.e {
			t.Errorf("%s of a mapped key resolved a second object (%p, not %p)", name, p.e, first.e)
		}
		p.Unpin()
	}
	if !first.TryLock() {
		t.Fatal("fresh key not acquirable")
	}
	seq := first.NextSeq()
	first.Unlock()
	if got := s.Locks(); got != 1 {
		t.Fatalf("Locks() = %d with one pin out, want 1", got)
	}
	first.Unpin()
	if got := s.Locks(); got != 0 {
		t.Fatalf("Locks() = %d after the last Unpin, want 0", got)
	}

	// Next incarnation: the algorithm is chosen again, the sequence is not.
	next := s.PinWith(locks.Ticket, key)
	if next.e == first.e || next.e.algo() != locks.Ticket {
		t.Fatalf("PinWith(Ticket) after the free: same entry %v, algo %v", next.e == first.e, next.e.algo())
	}
	if !next.TryLock() {
		t.Fatal("next incarnation not acquirable")
	}
	if got := next.NextSeq(); got <= seq {
		t.Fatalf("sequence %d after %d across incarnations", got, seq)
	}
	next.Unlock()
	next.Unpin()

	defer func() {
		if recover() == nil {
			t.Error("PinWith of an unknown algorithm did not panic")
		}
	}()
	s.PinWith(locks.Algorithm(99), key)
}

// TestLastUnpinInvalidatesHandle parks a handle on a pinned key: dropping a
// pin that is not the last leaves the handle's cache alone, and the last
// Unpin — which frees the key by marking the entry it holds — costs the
// handle exactly one re-resolve, onto the next incarnation.
func TestLastUnpinInvalidatesHandle(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	const key = 9
	p1, p2 := s.Pin(key), s.Pin(key)
	h := s.NewHandle()
	use := func() {
		h.Lock(key)
		h.Unlock(key)
	}
	use()
	p1.Unpin()
	use()
	if got := h.CacheMisses(); got != 1 {
		t.Fatalf("%d misses with a pin still out, want 1 (the warm-up alone)", got)
	}
	old := h.last
	p2.Unpin()
	if n := s.Locks(); n != 0 || !old.dead() {
		t.Fatalf("after the last Unpin: Locks() = %d, dead = %v; want 0, true", n, old.dead())
	}
	use()
	use()
	if got := h.CacheMisses(); got != 2 {
		t.Errorf("%d misses after the last Unpin, want 2 (warm-up + one re-resolve)", got)
	}
	if h.last == old || h.last != s.table.Get(key) {
		t.Error("the handle does not cache the key's new incarnation")
	}
}
