package locks

import (
	"sync/atomic"

	"gls/internal/backoff"
	"gls/internal/pad"
)

// Phase-fair ticket constants. The rin word carries two things at once: the
// reader arrival count, in units of pfReader so the low two bits stay free,
// and the presence/phase bits of the writer that most recently announced.
// Packing them into one word is what makes the protocol work: a reader's
// fetch-and-add captures "my ticket" and "which writer phase, if any, I
// arrived under" in a single atomic step, so there is no window in which a
// reader can be counted by one writer phase while believing it is blocked
// behind another.
const (
	// pfPresent is set in rin while a writer holds or is draining.
	pfPresent uint32 = 1
	// pfPhase is the writer phase parity bit. Consecutive writer phases
	// carry opposite parities (the parity of the writer's ticket), so a
	// reader blocked under one phase always observes the bits change when
	// the next phase begins — the hinge of the phase-fair guarantee.
	pfPhase uint32 = 2
	// pfWMask extracts the writer bits from rin.
	pfWMask = pfPresent | pfPhase
	// pfReader is one reader ticket: readers count in fours, clear of the
	// writer bits.
	pfReader uint32 = 4
)

// RWPhaseFair is a phase-fair reader-writer spinlock in the style of
// Brandenburg & Anderson's PF-T ("Reader-Writer Synchronization for
// Shared-Memory Multiprocessor Real-Time Systems", ECRTS'09): reader and
// writer phases alternate, so neither side can starve the other, and both
// sides keep constant-time arrival paths (one fetch-and-add each — the
// property Hapax-style FIFO admission shows is compatible with fairness).
//
// The protocol, over the same ticket idea as TicketCore:
//
//   - Writers are FIFO among themselves through a win/wout ticket pair.
//     The writer whose turn arrives announces itself by setting the
//     presence bit and its ticket's parity bit in rin, then waits for rout
//     to reach the reader count it captured at announcement — i.e. for
//     exactly the readers that arrived before it to leave. Readers arriving
//     after the announcement do not delay it.
//   - Readers fetch-and-add one ticket into rin. If the captured prior
//     value carries writer bits, the reader spins until those bits change —
//     which happens when that writer phase ends, whether the lock then goes
//     to readers (presence cleared) or straight to the next writer
//     (parity flipped). Either way the blocked reader is admitted: in the
//     second case it enters concurrently with the next writer's drain,
//     which counted it and therefore waits for it.
//
// The result is the phase-fair admission order W R* W R* ...: between any
// two writer phases, every reader that queued during the earlier phase is
// admitted as one batch. A reader waits at most one full writer phase plus
// one drain; a writer waits at most one reader batch plus the writers ahead
// of it in the ticket queue. Compare RWStriped, which leaves a reader
// unbounded against a continuous writer stream, and RWTTAS, which bounds
// nothing.
//
// The cost is RWTTAS-shaped on the read side: every RLock and RUnlock is an
// atomic update on a shared line, so read acquisitions do not scale the way
// RWStriped's do. Writes are where it wins: a writer announces in one word
// and waits on one, where RWStriped's sweeps every reader stripe and so
// pulls each reader's line away. Two goroutines on two cores, 16 keys
// (glk's BenchmarkRWWriteShare) put the crossover near 5 % writes: below it
// striped reads are faster, above it this lock is (58 against 77 ns per
// operation at 10 %). glk.RWLock uses it for both: against starvation, and
// for keys whose reads per write fall below that crossover.
//
// The whole lock is one cache line (locks/layout_test.go pins it).
type RWPhaseFair struct {
	rin  atomic.Uint32 // reader arrivals ×4 | writer presence/phase bits
	rout atomic.Uint32 // reader departures ×4
	win  atomic.Uint32 // next writer ticket
	wout atomic.Uint32 // completed writer phases
	_    [pad.CacheLineSize - 16]byte
}

var _ RWLock = (*RWPhaseFair)(nil)

// NewRWPhaseFair returns an unlocked phase-fair reader-writer lock.
func NewRWPhaseFair() *RWPhaseFair { return new(RWPhaseFair) }

// RLock acquires a read share: one fetch-and-add, then — only if the
// captured prior value carried a writer's bits — a wait for that writer
// phase to end. The reader is guaranteed admission at the next phase
// boundary, even if another writer follows immediately (the parity bit
// makes the boundary observable). The wait is a call of its own, so the
// arrival inlines into its callers.
func (l *RWPhaseFair) RLock() {
	if w := (l.rin.Add(pfReader) - pfReader) & pfWMask; w != 0 {
		l.waitPhase(w)
	}
}

// waitPhase is a blocked reader's wait: it returns once the writer bits w
// its arrival captured have changed, which ends that writer phase. It is
// kept out of line: inlined, it would push RLock over the inlining budget.
//
//go:noinline
func (l *RWPhaseFair) waitPhase(w uint32) {
	var s backoff.Spinner
	for l.rin.Load()&pfWMask == w {
		s.Spin()
	}
}

// TryRLock attempts to acquire a read share without waiting. The CAS keeps
// the ticket and the writer-bits check atomic, so a try can never be
// counted by a writer's announcement and then abandoned (which would make
// that writer's drain wait for a departure that never comes). A CAS lost to
// a concurrent arrival reports failure, like the package's other
// conservative tries.
func (l *RWPhaseFair) TryRLock() bool {
	v := l.rin.Load()
	if v&pfWMask != 0 {
		return false
	}
	return l.rin.CompareAndSwap(v, v+pfReader)
}

// RUnlock releases a read share.
func (l *RWPhaseFair) RUnlock() {
	l.rout.Add(pfReader)
}

// wbits returns the presence/phase bits for writer ticket t.
func wbits(t uint32) uint32 {
	return pfPresent | (t&1)<<1
}

// Lock acquires the write lock: take a ticket, wait for the writer turn
// (FIFO), announce presence and phase parity in rin, then wait for exactly
// the readers that arrived before the announcement to leave.
func (l *RWPhaseFair) Lock() {
	t := l.win.Add(1) - 1
	var s backoff.Spinner
	for l.wout.Load() != t {
		s.Spin()
	}
	w := wbits(t)
	blocked := (l.rin.Add(w) - w) &^ pfWMask
	for l.rout.Load() != blocked {
		s.Spin()
	}
}

// TryLock attempts to acquire the write lock without waiting: it fails if
// another writer holds or awaits the lock, or if any reader is inside. The
// readers check happens *before* the ticket is taken, because a consumed
// ticket must always complete its full announced phase — there is no
// backout path, by design. Retiring a ticket early (announced or not)
// would let two announced phases carry the same parity with no writer
// in between waiting on the sleeping readers of the first, and a reader
// that slept across the gap would then spin on bits a new writer holds
// while that writer waits for the reader's departure: deadlock. The pure
// protocol is immune because the first writer whose snapshot counts a
// blocked reader keeps the opposite parity visible until that reader
// departs; TryLock preserves the invariant by only committing when the
// lock is provably empty — the announcement is a CAS from the very value
// the emptiness check read, so success and "no reader arrived" are one
// atomic fact and the success path never waits. The one residual wait:
// a reader whose fetch-and-add lands inside the instruction-scale window
// between the ticket CAS and the announce CAS forces the committed ticket
// through a real phase, draining just the read sections that raced that
// window (they are in flight, not blocked). See the RWLock interface note
// on conservative try semantics.
func (l *RWPhaseFair) TryLock() bool {
	o := l.wout.Load()
	if l.win.Load() != o {
		return false // a writer holds or awaits the lock
	}
	v := l.rin.Load()
	if v != l.rout.Load() {
		// Readers inside, or a writer's bits still up (bits make v a
		// non-multiple of pfReader, so one comparison covers both).
		return false
	}
	if !l.win.CompareAndSwap(o, o+1) {
		return false // lost the ticket race to another writer
	}
	// Committed. Announce by CAS from the clean value the emptiness check
	// read: success proves atomically that no reader arrived in between,
	// so the phase needs no drain and this path never waits.
	w := wbits(o)
	if l.rin.CompareAndSwap(v, v|w) {
		return true
	}
	// A reader's fetch-and-add landed inside the two-CAS window. The
	// consumed ticket must still complete its full announced phase, so
	// announce and wait out exactly the readers that raced the window
	// (in flight, not blocked — their arrival predates the announcement).
	blocked := (l.rin.Add(w) - w) &^ pfWMask
	var s backoff.Spinner
	for l.rout.Load() != blocked {
		s.Spin()
	}
	return true
}

// Unlock releases the write lock: clear the announcement first (readers
// blocked under this phase are admitted), then advance wout (the next
// writer may announce — with the opposite parity).
func (l *RWPhaseFair) Unlock() {
	t := l.wout.Load() // our own ticket: only the holder advances wout
	l.rin.Add(-wbits(t))
	l.wout.Add(1)
}

// QueueLen returns the number of writers at the lock (waiters plus the
// holder), zero when no writer holds or waits — the same free contention
// measure TicketCore exposes.
func (l *RWPhaseFair) QueueLen() int {
	return int(int32(l.win.Load() - l.wout.Load()))
}

// Phases returns the number of completed writer phases — the clock the
// bounded-reader-wait property is stated against (a blocked reader is
// admitted within one phase).
func (l *RWPhaseFair) Phases() uint64 { return uint64(l.wout.Load()) }

// ReadsDone returns the number of completed read sections modulo 2³⁰ — the
// rout word in reader units. The difference of two samples, taken modulo
// 2³⁰, counts the reads that ended between them.
func (l *RWPhaseFair) ReadsDone() uint32 { return l.rout.Load() / pfReader }

// Readers returns the current reader count (racy snapshot; diagnostics
// only).
func (l *RWPhaseFair) Readers() int {
	n := int32(l.rin.Load()&^pfWMask-l.rout.Load()) / int32(pfReader)
	if n > 0 {
		return int(n)
	}
	return 0
}

// WriteLocked reports whether a writer holds (or is draining toward) the
// lock (racy snapshot).
func (l *RWPhaseFair) WriteLocked() bool { return l.rin.Load()&pfPresent != 0 }
