package gls

import (
	"fmt"
	"runtime"

	"gls/locks"
)

// pinsDead is the pin count of an entry whose last Pin is gone and which is
// being retired or has been. The count never leaves this value, so a late
// Pin that still resolves the dying entry cannot revive it.
const pinsDead = -1

// Pin is a counted reference to one key's lock object: while any Pin of a
// key is out the object stays mapped, and the Unpin that drops the last one
// frees the key, atomically with respect to new Pins — the quiescence
// Service.Free demands of its callers, decided inside the entry. A Pin acts
// on its lock object directly, with no table lookup, so its holder can
// release from any goroutine exactly the object it acquired.
//
// Only pinned users are counted: the last Unpin frees the key under a
// goroutine that reached it through Service.Lock or a Handle alone (the
// raw-Free hazard), so such calls are safe only while their caller holds a
// Pin of the key. Like a Handle, a Pin bypasses the debug checks.
type Pin struct {
	s *Service
	e *entry
}

// Pin resolves key's lock object — creating the GLK lock on first use, like
// Lock — and takes a reference to it. Every Pin needs exactly one Unpin.
// Because the last Unpin frees the key, the object a GLK lock adapts on
// lives only as long as its pins overlap: a caller that knows how its keys
// are waited on should name the algorithm with PinWith instead.
func (s *Service) Pin(key uint64) Pin { return s.pinWith(algoGLK, key) }

// PinWith is Pin with the explicit algorithm a for a key's first use — the
// paper's "pre-determined algorithm" for a lock whose behaviour is known
// (§4.3). The contract is LockWith's: if the key is already mapped, the
// existing lock is pinned regardless of a. A key's algorithm is decided per
// incarnation, so the first PinWith after the last Unpin chooses again.
func (s *Service) PinWith(a locks.Algorithm, key uint64) Pin {
	if !a.Valid() {
		panic(fmt.Sprintf("gls: PinWith(%v): unknown algorithm", a))
	}
	return s.pinWith(a, key)
}

func (s *Service) pinWith(a locks.Algorithm, key uint64) Pin {
	for {
		e, _ := s.entryFor(key, a)
		for n := e.pins.Load(); n != pinsDead; n = e.pins.Load() {
			if e.pins.CompareAndSwap(n, n+1) {
				return Pin{s: s, e: e}
			}
		}
		// The last Unpin is between marking this entry dead and deleting
		// it: let it run, then resolve the next incarnation.
		runtime.Gosched()
	}
}

// TryLock try-acquires the pinned lock.
func (p Pin) TryLock() bool { return p.e.exclusive().TryLock() }

// LockCancel acquires the pinned lock, giving up when c fires while queued,
// and reports whether the lock is held. The contract is locks.LockWithCancel's:
// the grant beats the abort, c.TimedOut tells a deadline from a closed Done
// after a false return, and a Cancel that can never fire (nil included) takes
// the plain blocking path. One Cancel may bound several acquisitions in turn
// on one goroutine — a batch's shared deadline — since a fired Cancel stays
// fired.
func (p Pin) LockCancel(c *locks.Cancel) bool {
	return locks.LockWithCancel(p.e.exclusive(), c)
}

// Unlock releases the pinned lock.
func (p Pin) Unlock() { p.e.exclusive().Unlock() }

// NextSeq advances the key's sequence and returns the new value. The caller
// must hold the pinned lock: values are then handed out in grant order and
// strictly increase per key — across holders, and across Frees of the key,
// since every value exceeds the service's floor and the freeing Unpin raises
// the floor to the entry's last value. A floor raised by another key makes
// this key's next value jump; only "larger than every earlier one" is
// promised. glsd's fencing tokens are these values.
func (p Pin) NextSeq() uint64 {
	next := max(p.e.seq.Load(), p.s.seqFloor.Load()) + 1
	p.e.seq.Store(next)
	return next
}

// Seq reports key's sequence high-water mark without creating the key: no
// pin of key that is still locked got a larger value from NextSeq, and
// every later NextSeq will return one. For a key that is not mapped this is
// the service's floor — 0 until some sequenced key is freed.
func (s *Service) Seq(key uint64) uint64 {
	seq := s.seqFloor.Load()
	if e := s.table.Get(key); e != nil {
		seq = max(seq, e.seq.Load())
	}
	return seq
}

// Unpin drops the reference, and frees the key if it was the last. Zero is
// turned into pinsDead by a CAS, so a Pin that slipped in after the
// decrement keeps the entry alive (and owns its next zero); Pins arriving
// after the CAS wait for the delete and resolve a fresh lock object.
func (p Pin) Unpin() {
	e := p.e
	switch n := e.pins.Add(-1); {
	case n < 0:
		panic("gls: Unpin without a matching Pin")
	case n > 0 || !e.pins.CompareAndSwap(0, pinsDead):
		return
	}
	// Floor before delete: the key's next incarnation is mapped after the
	// delete, and so mints above this entry's last value.
	s := p.s
	for seq := e.seq.Load(); ; {
		f := s.seqFloor.Load()
		if seq <= f || s.seqFloor.CompareAndSwap(f, seq) {
			break
		}
	}
	s.retire(e)
}
