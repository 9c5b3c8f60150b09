package client

import (
	"sync"
	"sync/atomic"
	"time"
)

// reqLock is the lock a Conn's round trips queue on. Its holder is always
// blocked on the network (it holds the lock across a request and its
// reply), so by the paper's rule a waiter blocks rather than spins: nothing
// it does on its CPU brings the release closer, and that CPU is the one the
// reader or the server needs. reqLock keeps sync.Mutex's admission order
// and drops its spinning:
//
//   - Uncontended, Lock and Unlock are one CAS each.
//   - A Lock that finds the lock held parks on its wake channel at once.
//   - Unlock frees the lock and wakes one waiter, which competes with new
//     arrivals: the goroutine that just finished a round trip may take the
//     next one, which holds a closed loop's median latency.
//   - A woken waiter that loses after waiting starvationThreshold switches
//     the lock to hand-off mode: each Unlock passes ownership to the oldest
//     waiter and arrivals queue behind it, until the queue empties or the
//     waiter handed the lock had waited less than the threshold.
//
// Waiter records come from a free list, so a contended Lock allocates only
// when the number of parked waiters reaches a new peak.
type reqLock struct {
	state atomic.Int32 // reqLocked | reqWoken | reqStarving | waiters<<reqWaiterShift

	mu   sync.Mutex // guards the queue and the free list; slow paths only
	head *reqWaiter // the oldest waiter
	tail *reqWaiter
	free *reqWaiter
}

const (
	reqLocked      = 1 << iota // held
	reqWoken                   // a woken waiter is competing: Unlock wakes no other
	reqStarving                // hand-off mode
	reqWaiterShift = iota

	// starvationThreshold is how long a waiter may lose to arrivals before
	// Unlock hands it the lock: sync.Mutex's starvationThresholdNs.
	starvationThreshold = time.Millisecond
)

// reqWaiter is one parked Lock.
type reqWaiter struct {
	next   *reqWaiter
	wake   chan struct{} // one slot: one send per dequeue
	since  time.Time     // when this Lock first parked
	handed bool          // set before the wake by a hand-off: the waiter owns the lock
}

// Lock acquires l, parking while another goroutine holds it.
func (l *reqLock) Lock() {
	if l.state.CompareAndSwap(0, reqLocked) {
		return
	}
	l.lockSlow()
}

func (l *reqLock) lockSlow() {
	var w *reqWaiter // this Lock's record, once it has parked
	for {
		s := l.state.Load()
		if s&(reqLocked|reqStarving) == 0 {
			n := s | reqLocked
			if w != nil {
				n &^= reqWoken // the woken waiter is this one
			}
			if l.state.CompareAndSwap(s, n) {
				break
			}
			continue
		}
		var parked bool
		if w, parked = l.park(w); parked && w.handed {
			break
		}
	}
	if w != nil {
		l.mu.Lock()
		w.handed, w.next, l.free = false, l.free, w
		l.mu.Unlock()
	}
}

// park queues the caller and blocks until an Unlock wakes it or hands it the
// lock (w.handed). w is the caller's record if it has parked before: it goes
// back to the head of the queue, still the oldest waiter, and switches the
// lock to hand-off mode once it has waited starvationThreshold. park returns
// parked false, having queued nothing, if the lock is free by the time it
// holds the queue.
func (l *reqLock) park(w *reqWaiter) (_ *reqWaiter, parked bool) {
	l.mu.Lock()
	for {
		s := l.state.Load()
		if s&(reqLocked|reqStarving) == 0 {
			l.mu.Unlock()
			return w, false
		}
		n := s + 1<<reqWaiterShift
		if w != nil {
			n &^= reqWoken
			if time.Since(w.since) >= starvationThreshold {
				n |= reqStarving
			}
		}
		if l.state.CompareAndSwap(s, n) {
			break
		}
	}
	if w == nil {
		if w = l.free; w != nil {
			l.free, w.next = w.next, nil
		} else {
			w = &reqWaiter{wake: make(chan struct{}, 1)}
		}
		w.since = time.Now()
		if l.tail == nil {
			l.head = w
		} else {
			l.tail.next = w
		}
		l.tail = w
	} else {
		if w.next = l.head; w.next == nil {
			l.tail = w
		}
		l.head = w
	}
	l.mu.Unlock()
	<-w.wake
	return w, true
}

// Unlock releases l. Unlocking an unlocked reqLock is a bug, and panics.
func (l *reqLock) Unlock() {
	if l.state.CompareAndSwap(reqLocked, 0) {
		return
	}
	l.unlockSlow()
}

func (l *reqLock) unlockSlow() {
	for {
		s := l.state.Load()
		if s&reqLocked == 0 {
			panic("client: unlock of an unlocked reqLock")
		}
		if s&reqStarving != 0 || s>>reqWaiterShift != 0 && s&reqWoken == 0 {
			break
		}
		// No waiter, or a woken one already competing: just free the lock.
		if l.state.CompareAndSwap(s, s&^reqLocked) {
			return
		}
	}
	// A waiter is to be woken or handed the lock. While the lock is held
	// every other change to state is made under mu, so state is fixed here.
	l.mu.Lock()
	s := l.state.Load()
	w := l.head
	if l.head = w.next; l.head == nil {
		l.tail = nil
	}
	w.next = nil
	n := s - 1<<reqWaiterShift
	if w.handed = s&reqStarving != 0; w.handed {
		if l.head == nil || time.Since(w.since) < starvationThreshold {
			n &^= reqStarving
		}
	} else {
		n = n&^reqLocked | reqWoken
	}
	l.state.Store(n)
	l.mu.Unlock()
	w.wake <- struct{}{}
}
