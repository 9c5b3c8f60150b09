package locks

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"gls/internal/backoff"
	"gls/internal/pad"
)

// TicketCore is the unpadded state of a ticket lock: the two counters plus
// a lazily-allocated abandonment side table, 16 bytes. It exists for
// embedders that manage cache-line placement themselves — glk.Lock keeps
// its idle footprint to a few lines by folding the ticket words into a line
// it already owns (DESIGN.md §8) — while standalone use should go through
// TicketLock, which pads the core to a full line per the paper's §3.2 rule.
//
// A thread acquires by atomically taking the next ticket and spinning until
// the owner counter reaches it; unlock increments owner. The lock is FIFO by
// construction, and — crucially for GLK — `ticket − owner` exposes how many
// threads are at the lock (waiters plus the current holder) for free (paper
// §3, "Measuring Contention").
//
// Cancellation (DESIGN.md §11): a ticket, once taken, obligates its holder
// to consume a grant — simply walking away would park the owner counter on
// the dead ticket forever. An aborting waiter therefore either retires its
// ticket (CAS next back down, only possible while it still holds the
// newest ticket) or records it in the abandonment table; Unlock advances
// the owner counter over any abandoned tickets it lands on, keeping the
// owner word live no matter how many waiters departed.
type TicketCore struct {
	// next and owner share a cache line deliberately: an acquisition touches
	// both and the paper's ticket lock is a single-line lock.
	next  atomic.Uint32
	owner atomic.Uint32
	// abandon is the abandonment side table (*ticketSide), published by the
	// first abort that cannot retire its ticket and sticky thereafter. The
	// pointer is the only footprint the cancellable path adds to the core;
	// the hot Unlock pays one extra load to see it nil. It is a raw
	// unsafe.Pointer driven through the atomic intrinsics rather than an
	// atomic.Pointer: the generic wrapper's inline cost pushes Unlock past
	// the inlining budget, and Unlock inlining into glk's ticket-mode
	// release path is load-bearing for the uncontended hot path.
	abandon unsafe.Pointer
}

// side returns the published abandonment table, or nil.
func (l *TicketCore) side() *ticketSide {
	return (*ticketSide)(atomic.LoadPointer(&l.abandon))
}

// ticketSide holds the abandoned-ticket bookkeeping off the lock's hot
// line. n mirrors len(set) so Unlock's drain check is a single load instead
// of a mutex acquisition.
type ticketSide struct {
	mu  sync.Mutex
	set map[uint32]struct{}
	n   atomic.Uint32
	// abandons counts tickets ever abandoned (guarded by mu) — the
	// accounting half of "ticket abandonment accounting": retired tickets
	// (returned via CAS on next) are free and deliberately not counted.
	abandons uint64
}

// TicketLock is TicketCore padded to its own cache line — the fair spinlock
// GLK uses in its low-contention mode, in the standalone Table-1 shape.
type TicketLock struct {
	TicketCore
	_ [pad.CacheLineSize - 16]byte
}

var (
	_ Lock           = (*TicketLock)(nil)
	_ CancelableLock = (*TicketLock)(nil)
)

// NewTicket returns an unlocked ticket lock.
func NewTicket() *TicketLock { return new(TicketLock) }

// Lock takes the next ticket and waits for its turn. Waiting is
// proportional: a thread whose ticket is far from the owner backs off
// longer, which reduces traffic on the shared line.
func (l *TicketCore) Lock() {
	t := l.next.Add(1) - 1
	var s backoff.Spinner
	for {
		o := l.owner.Load()
		if o == t {
			return
		}
		// Proportional component: one pause per waiter ahead of us, on top
		// of the escalating policy.
		dist := t - o
		if dist > 16 {
			dist = 16
		}
		backoff.Pause(dist)
		s.Spin()
	}
}

// LockCancel takes a ticket and waits for its turn, abandoning the wait
// when c fires. Abort prefers retiring the ticket — CASing next from t+1
// back to t, which succeeds only while no later ticket has been issued and
// leaves no trace — and otherwise records t in the abandonment table for
// Unlock's drain to step over.
func (l *TicketCore) LockCancel(c *Cancel) bool {
	if c.Never() {
		l.Lock()
		return true
	}
	t := l.next.Add(1) - 1
	var s backoff.Spinner
	for {
		o := l.owner.Load()
		if o == t {
			return true
		}
		if c.Aborted() {
			// Retire: if next is still t+1, no one queued behind us, and
			// rolling it back makes the ticket never have existed. This is
			// safe even if owner has advanced to t meanwhile — the lock
			// then reads next == owner, i.e. genuinely free, and the
			// un-consumed grant is simply up for grabs by the next taker.
			if l.next.CompareAndSwap(t+1, t) {
				return false
			}
			if !l.abandonTicket(t) {
				// The grant raced the abandonment and won: the ticket was
				// pulled back out of the table and the lock is ours.
				return true
			}
			return false
		}
		dist := t - o
		if dist > 16 {
			dist = 16
		}
		backoff.Pause(dist)
		s.Spin()
	}
}

// abandonTicket records t as abandoned and reports whether the abandonment
// stood. The order is load-bearing: the ticket is inserted (and n raised)
// *before* the final owner check, so an Unlock that concurrently advances
// owner to t either sees n > 0 and drains the entry, or wrote owner before
// our check read it — in which case we see owner == t, withdraw the entry
// and consume the grant ourselves (returning false: caller owns the lock).
// With both sides sequentially consistent one of the two observations is
// guaranteed; checking owner before publishing would leave a window where
// the counter wedges on a dead ticket.
func (l *TicketCore) abandonTicket(t uint32) bool {
	side := l.side()
	if side == nil {
		side = &ticketSide{set: make(map[uint32]struct{})}
		if !atomic.CompareAndSwapPointer(&l.abandon, nil, unsafe.Pointer(side)) {
			side = l.side()
		}
	}
	side.mu.Lock()
	side.set[t] = struct{}{}
	side.n.Add(1)
	if l.owner.Load() == t {
		delete(side.set, t)
		side.n.Add(^uint32(0))
		side.mu.Unlock()
		return false
	}
	side.abandons++
	side.mu.Unlock()
	return true
}

// TryLock acquires the lock only if no one holds or awaits it.
//
// An owner counter resting on an abandoned ticket cannot fool this check:
// abandonment only happens after the retire CAS failed, which means a later
// ticket was issued and next is forever ≥ t+2 — so next == owner is
// unreachable while owner sits on an undrained abandoned ticket.
func (l *TicketCore) TryLock() bool {
	o := l.owner.Load()
	if l.next.Load() != o {
		return false
	}
	return l.next.CompareAndSwap(o, o+1)
}

// Unlock grants the lock to the next ticket holder, stepping the owner
// counter over abandoned tickets so it always comes to rest on a live
// waiter (or on next, leaving the lock free).
//
// Unlocking a free ticket lock corrupts it (the owner counter overtakes
// next) — exactly the failure mode the paper's §4.2 debugging catches; GLS
// in debug mode reports it instead of corrupting the lock.
func (l *TicketCore) Unlock() {
	l.owner.Add(1)
	if atomic.LoadPointer(&l.abandon) != nil {
		l.drainAbandoned()
	}
}

// drainAbandoned advances owner past consecutively-abandoned tickets. The
// fast exit reads n without the mutex: if an aborter is concurrently
// inserting the ticket owner just landed on, either this load sees n > 0,
// or the insert's subsequent owner check sees the new owner value and the
// aborter consumes the grant itself (see abandonTicket).
func (l *TicketCore) drainAbandoned() {
	side := l.side()
	if side.n.Load() == 0 {
		return
	}
	side.mu.Lock()
	for side.n.Load() > 0 {
		cur := l.owner.Load()
		if _, ok := side.set[cur]; !ok {
			break
		}
		delete(side.set, cur)
		side.n.Add(^uint32(0))
		l.owner.Add(1)
	}
	side.mu.Unlock()
}

// Abandons returns how many tickets were ever abandoned into the side
// table (retired tickets are not abandonments). Diagnostics and tests.
func (l *TicketCore) Abandons() uint64 {
	side := l.side()
	if side == nil {
		return 0
	}
	side.mu.Lock()
	defer side.mu.Unlock()
	return side.abandons
}

// QueueLen returns the number of threads at the lock: waiters plus one for
// the holder, zero when free. Abandoned tickets not yet stepped over are
// counted — like MCSLock.QueueLen, recent departures are recent contention.
func (l *TicketCore) QueueLen() int {
	n := l.next.Load()
	o := l.owner.Load()
	return int(int32(n - o))
}

// Locked reports whether the lock is currently held (racy; diagnostics only).
func (l *TicketCore) Locked() bool { return l.QueueLen() > 0 }

// Handoffs returns the number of completed grants (Unlock calls) modulo
// 2^32 — a free phase counter. The glsfair reader-starvation accounting
// uses the delta across a wait to count exactly the writer phases that
// bypassed a blocked reader (wraparound subtraction keeps it exact).
func (l *TicketCore) Handoffs() uint32 { return l.owner.Load() }
