package glk

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
	"unsafe"

	"gls/internal/backoff"
	"gls/internal/pad"
	"gls/internal/stripe"
	"gls/internal/sysmon"
	"gls/locks"
	"gls/telemetry"
)

// RWMode identifies the admission protocol of an adaptive RW lock, as Mode
// names the exclusive lock's algorithm: rwstriped is the native protocol,
// the other two delegate to a different lock entirely. Whether the native
// reader counter is inline or striped is footprint housekeeping, like the
// exclusive lock's presence counter (DESIGN.md §8), not a mode.
type RWMode uint32

// The three reader-writer modes.
const (
	// RWModeStriped is the native protocol, locks.RWStriped's: readers count
	// themselves in a stripe.Counter, a writer takes a FIFO ticket, raises a
	// flag and drains the counter. Every lock is born in it, its counter one
	// inline cell (the idle lock is two cache lines) until readers meet.
	RWModeStriped RWMode = iota + 1
	// RWModePhaseFair delegates to a locks.RWPhaseFair: reader and writer
	// phases alternate, so neither side can starve the other, and a write
	// announces in one word instead of sweeping every reader stripe. Reads
	// cost a shared-line ticket.
	RWModePhaseFair
	// RWModeWritePref delegates to a locks.RWWritePref: the blocking mode,
	// selected under multiprogramming via the same sysmon probe GLK's
	// exclusive lock uses for its mutex transition — spinning readers and
	// writers would burn time slices the preempted holder needs.
	RWModeWritePref
)

// String returns the reporting name of the mode, in GLK's lower-case style.
func (m RWMode) String() string {
	switch m {
	case RWModeStriped:
		return "rwstriped"
	case RWModePhaseFair:
		return "rwphasefair"
	case RWModeWritePref:
		return "rwwritepref"
	default:
		return fmt.Sprintf("RWMode(%d)", uint32(m))
	}
}

// Adaptation defaults for the RW lock. The write side samples far less
// often than the exclusive lock (writes on a read-mostly lock are rare
// events already).
const (
	// DefaultRWSamplePeriod is how often (in completed write sections) the
	// writer re-examines the mode decision.
	DefaultRWSamplePeriod = 64
	// DefaultRWStarveBackouts is how many writer phases may bypass one
	// blocked reader before it raises the starvation signal that sends the
	// lock to phase-fair admission: a couple of back-to-back writers are
	// normal, dozens are a stream. Dozens, because a bypass is a sample
	// (rlockNative): a backed-off reader looks every few microseconds, and
	// on one hot key whose writers are inside 45 % of the time each look is
	// a coin flip. Eight heads in a row turn up hundreds of times a second
	// at millions of reads a second, sixteen still once every couple of
	// seconds (measured, two goroutines, 10 % writes); telling a duty cycle
	// of one half from a stream at one error in 10⁹ takes thirty.
	DefaultRWStarveBackouts = 32
	// DefaultRWFairPeriods is the hysteresis dwell, in sampled write
	// periods, for the striped↔phase-fair decision: this many consecutive
	// write-mixed periods (a striped key read fewer than rwMixToPhaseFair
	// times per write) escalate, and this many calm ones (writer queue < 2
	// at the boundary and, for a striped key, no reads or at least
	// rwMixToNative per write) de-escalate.
	DefaultRWFairPeriods = 2
)

// rwDeflatePeriods is how many consecutive sampled write periods in which
// no reader came fold the striped readers back into the inline cell.
const rwDeflatePeriods = 4

// The write-mix rule's bounds, in reads per write over a sampled period. A
// striped write sweeps every reader stripe and pulls each reader's line
// away; a phase-fair write announces in one word, while every phase-fair
// read writes a shared line. On two goroutines and 16 keys
// (BenchmarkRWWriteShare, EXPERIMENTS.md) the two cross near 5 % writes:
// a striped key read fewer than rwMixToPhaseFair times per write goes
// phase-fair, and a phase-fair key returns once reads outnumber writes
// rwMixToNative to one. Between the two a key stays where it is. The
// crossover was measured at two workers only: a striped write sweeps at most
// stripe.NumStripes stripes while every phase-fair read serialises on one
// line, so with more concurrent readers it may sit elsewhere.
const (
	rwMixToPhaseFair = 16
	rwMixToNative    = 32
)

// rwArrival is what a native reader adds to the reader counter on arrival,
// and takes back if it backs out; RUnlock takes back 1. The counter's low 32
// bits are then the readers present (rwPresent), and the bits above them an
// arrival clock (rwArrivals): the reads admitted so far, modulo 2³¹ — the
// counter is exact modulo 2⁶³ (stripe.Counter). The write-mix rule reads the
// clock once per sampling period; a reader adds it for free.
const rwArrival = 1<<32 + 1

// rwPresent is the readers-present half of a reader-counter value.
func rwPresent(v int64) int64 { return int64(int32(v)) }

// rwArrivals is the arrival-clock half of a reader-counter value.
func rwArrivals(v int64) uint32 { return uint32(uint64(v-rwPresent(v)) >> 32) }

// rwInflateReaders mirrors locks.rwInflateReaders: a deflated count update
// returning 2 present proves a second simultaneous reader. (Inflated, the
// value is one stripe's skewed running total, and Inflate is a load.)
const rwInflateReaders = 2

// rwBackoutSpins caps one waiting round of a backed-out native reader, so
// a gapless writer stream cannot pin the reader in a spin where its bypass
// count — and therefore the starvation signal — never advances.
const rwBackoutSpins = 64

// rwStarveRoundsFactor scales the rounds-based backstop of the starvation
// signal: the primary trigger counts real writer phases (ticket handoffs)
// that bypassed the reader, but a writer that simply holds for a very long
// time generates no handoffs, so the signal also fires after
// rwStarveRoundsFactor × StarveBackouts bounded waiting rounds.
const rwStarveRoundsFactor = 8

// RWConfig tunes an adaptive RW lock: the write-side sampling period, the
// two fairness bounds, the multiprogramming monitor and telemetry. Every
// lock is born rwstriped with an inline reader cell and adapts; the
// deflation dwell is fixed at four sampled periods. The zero value selects
// every default.
type RWConfig struct {
	// SamplePeriod is the write-side sampling period, in completed write
	// sections: every SamplePeriod-th write acquisition folds its
	// observations into the mode decision.
	SamplePeriod uint64
	// StarveBackouts is how many writer phases may bypass one blocked
	// reader before it raises the starvation signal (0 selects
	// DefaultRWStarveBackouts). The next writer release then switches the
	// lock to phase-fair admission.
	StarveBackouts uint32
	// FairPeriods is the striped↔phase-fair hysteresis dwell in sampled
	// write periods (0 selects DefaultRWFairPeriods): the write-mixed
	// periods that escalate, and the calm ones that return.
	FairPeriods uint32
	// Monitor supplies the multiprogramming flag for the blocking-mode
	// decision — the same probe Config.Monitor feeds the exclusive lock.
	// nil selects the shared process-wide monitor.
	Monitor *sysmon.Monitor
	// Stats, if non-nil, receives this lock's telemetry: writer
	// acquisitions through the exclusive lanes, reader acquisitions through
	// the rw lanes, writer drain time, reader wait phases and starvation
	// events, and every mode transition with its reason. EnableRW and the
	// read-side samplers are wired at construction.
	Stats *telemetry.LockStats
}

// withDefaults returns a copy of c with zero fields replaced by defaults.
func (c RWConfig) withDefaults() RWConfig {
	if c.SamplePeriod == 0 {
		c.SamplePeriod = DefaultRWSamplePeriod
	}
	if c.StarveBackouts == 0 {
		c.StarveBackouts = DefaultRWStarveBackouts
	}
	if c.FairPeriods == 0 {
		c.FairPeriods = DefaultRWFairPeriods
	}
	return c
}

// Validate reports configuration errors after defaulting.
func (c RWConfig) Validate() error {
	d := c.withDefaults()
	if d.SamplePeriod > math.MaxUint32 {
		return fmt.Errorf("glk: RW SamplePeriod %d exceeds the 32-bit countdown range", d.SamplePeriod)
	}
	if d.FairPeriods > math.MaxUint8 {
		return fmt.Errorf("glk: RW FairPeriods %d exceeds the 8-bit counter range (the holder line is a budget)",
			d.FairPeriods)
	}
	return nil
}

// rwSubs holds the lazily-allocated delegate locks. Instances are
// immutable once published through RWLock.subs: adding a delegate builds a
// new rwSubs, so an arrival that loaded the pointer after observing a
// delegate mode always finds that delegate non-nil (the pointer is stored
// before the mode word that names it, the same publication order as
// glk.Lock's mcs/mutex pointers).
type rwSubs struct {
	pf *locks.RWPhaseFair
	wp *locks.RWWritePref
}

// rwDelegate is the contract both delegate locks provide: the RWLock
// operations plus the introspection the policy and telemetry sample. One
// interface keeps the family dispatch in the acquire paths to a single
// body per operation; the virtual call is noise on paths that exist for
// fairness and blocking, not latency.
type rwDelegate interface {
	locks.RWLock
	WriteLocked() bool
	Readers() int
	QueueLen() int
}

// delegate returns delegate mode m's lock. m must be a delegate mode read
// from the mode word — the subs entry is published before the mode word
// that names it, so the load cannot return nil.
func (l *RWLock) delegate(m RWMode) rwDelegate {
	s := l.subs.Load()
	if m == RWModePhaseFair {
		return s.pf
	}
	return s.wp
}

// rwShared is the section of an RWLock every arrival touches: the mode
// word, the native protocol's writer flag/ticket/reader counter, the stats
// and delegate pointers, and the starvation signal. In the striped steady
// state the only per-operation write on this line is a writer's — readers
// write their stripes and merely read the flag; in the delegate modes the
// whole line goes read-only and the traffic moves to the delegate.
type rwShared struct {
	readers stripe.Counter         // lazily-striped native readers: present count below, arrival clock above (rwArrival)
	rwmode  atomic.Uint32          // current RWMode; stored only by transitionTo
	writer  atomic.Uint32          // native: 1 while a writer holds or is draining
	wmu     locks.TicketCore       // native: writer↔writer exclusion, FIFO
	stats   *telemetry.LockStats   // telemetry hooks, or nil
	subs    atomic.Pointer[rwSubs] // delegate locks; nil until first needed
	starve  atomic.Uint32          // set by a bypassed reader, consumed at Unlock
}

// rwConfig is the stored form of an RWConfig (the fields consulted after
// construction; Stats is hoisted to the shared section). The dwell period
// is a byte on purpose — Validate bounds it — so the whole holder section
// keeps to one line.
type rwConfig struct {
	samplePeriod   uint32
	starveBackouts uint32
	fairPeriods    uint8
	monitor        *sysmon.Monitor
}

// rwHolder is the writer-only section, guarded by whichever family's write
// lock the holder acquired — plain updates throughout. Every mode change is
// the holder's; transitions is atomic only for the outside pollers that
// read it.
type rwHolder struct {
	writes   uint64 // completed write sections
	wtok     uint32 // writer's stripe token (stripe.Self is 32 bits wide), repaid in Unlock
	sampleIn uint32 // write sections until the next mode check
	wfam     uint8  // RWMode the current write was acquired under
	// Dwell counters for the three adaptation decisions (byte-sized: they
	// share the holder line with the config).
	idlePeriods   uint8         // consecutive sampled periods in which no reader came (deflation)
	streakPeriods uint8         // consecutive write-mixed periods (→ phase-fair)
	calmPeriods   uint8         // consecutive calm, read-mostly or unread periods in phase-fair mode (→ striped)
	sawReaders    bool          // any drain in the current period met readers
	transitions   atomic.Uint32 // mode changes (32-bit: rare, dwell-gated)
	readMark      uint32        // the active family's read clock at the last boundary (periodReads)
	cfg           rwConfig
}

// RWLock is the adaptive reader-writer lock of the glsrw/glsfair
// subsystems: GLK's per-lock adaptation applied to the read side. Its mode
// word names an admission protocol, walked the way the exclusive lock walks
// ticket→mcs→mutex, paying for each property exactly while the workload
// demonstrates the need:
//
//   - rwstriped — BRAVO-style striped readers (locks.RWStriped's
//     protocol), every lock's birth mode. The reader counter starts inline;
//     a second simultaneous reader, or a drain that meets readers, stripes
//     it, and four sampled write periods in which no reader came fold it
//     back (rwDeflatePeriods). Neither is a mode change.
//   - rwphasefair — delegate to locks.RWPhaseFair, entered when a blocked
//     reader reports being bypassed past StarveBackouts writer phases, or
//     when FairPeriods consecutive sampled periods show a striped key read
//     fewer than rwMixToPhaseFair times per write. Neither side can
//     starve, and a write costs one announcement instead of a sweep of the
//     stripes; reads pay a shared-line ticket, so FairPeriods calm periods
//     return the lock to rwstriped — a striped key's only when they saw no
//     reads, or rwMixToNative reads per write.
//   - rwwritepref — delegate to the blocking locks.RWWritePref under
//     multiprogramming, detected via the same sysmon probe the exclusive
//     lock uses for its mutex transition; cleared when the flag drops.
//
// Every transition is telemetry-visible with its reason (§4.3 style).
//
// Transitions are performed by a releasing writer, which holds the lock
// exclusively — no read shares are outstanding — and are published through
// the mode word before the old family's write lock is released. Arrivals
// re-check the mode after acquiring under it and re-dispatch if it moved,
// exactly the re-check loop glk.Lock runs on its mode word; a share taken
// during the hand-over window is released before the caller ever enters its
// critical section, so mutual exclusion only ever depends on one family at
// a time.
//
// Layout follows glk.Lock's sectioning discipline: one shared arrival line,
// one writer-only line; layout_test.go pins both and the ≤4-line ISSUE
// budget. The delegate locks live behind one lazily-allocated pointer, so
// the fairness and blocking modes cost the idle lock nothing.
type RWLock struct {
	rwShared
	_ [(pad.CacheLineSize - unsafe.Sizeof(rwShared{})%pad.CacheLineSize) % pad.CacheLineSize]byte
	rwHolder
	// The trailing pad must not come out at zero length (a zero-length
	// trailing array itself adds padding); TestRWLockFootprint pins the
	// whole-lines invariant.
	_ [(pad.CacheLineSize - unsafe.Sizeof(rwHolder{})%pad.CacheLineSize) % pad.CacheLineSize]byte
}

var _ locks.RWLock = (*RWLock)(nil)

// NewRW returns an adaptive reader-writer lock in rwstriped mode, its
// reader counter inline. cfg == nil selects all defaults. Invalid
// configurations panic, like New.
func NewRW(cfg *RWConfig) *RWLock {
	var c RWConfig
	if cfg != nil {
		c = *cfg
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	c = c.withDefaults()
	l := &RWLock{}
	l.cfg = rwConfig{
		samplePeriod:   uint32(c.SamplePeriod),
		starveBackouts: c.StarveBackouts,
		fairPeriods:    uint8(c.FairPeriods),
		monitor:        c.Monitor,
	}
	l.sampleIn = l.cfg.samplePeriod
	l.rwmode.Store(uint32(RWModeStriped))
	if c.Stats != nil {
		l.stats = c.Stats
		l.stats.EnableRW()
		l.stats.SetReaderSampler(l.readersNow)
		// The write-side presence is the active family's writer queue: the
		// ticket exposes it for free, exactly the paper's ticket measure.
		l.stats.SetPresenceSampler(func() int64 { return int64(l.writerQueueLen()) })
		l.stats.SetMode(RWModeStriped.String())
	}
	return l
}

// monitor returns the configured or shared multiprogramming monitor.
func (l *RWLock) monitor() *sysmon.Monitor {
	if l.cfg.monitor != nil {
		return l.cfg.monitor
	}
	return sysmon.Shared()
}

// ensureSub makes sure mode m's delegate lock exists before the mode word
// can name it. Delegates are allocated on the first transition to their
// mode — a rare event performed while holding the lock — by publishing a
// fresh, immutable rwSubs.
func (l *RWLock) ensureSub(m RWMode) {
	cur := l.subs.Load()
	var ns rwSubs
	if cur != nil {
		ns = *cur
	}
	switch m {
	case RWModePhaseFair:
		if ns.pf != nil {
			return
		}
		ns.pf = locks.NewRWPhaseFair()
	case RWModeWritePref:
		if ns.wp != nil {
			return
		}
		ns.wp = locks.NewRWWritePref()
	default:
		return
	}
	l.subs.Store(&ns)
}

// RWMode returns the lock's current mode (racy snapshot).
func (l *RWLock) RWMode() RWMode { return RWMode(l.rwmode.Load()) }

// Transitions returns the number of mode changes performed so far.
func (l *RWLock) Transitions() uint64 { return uint64(l.transitions.Load()) }

// ReadersInflated reports whether the native reader counter is currently
// striped.
func (l *RWLock) ReadersInflated() bool { return l.readers.Inflated() }

// readersNow counts the readers currently at the lock under the active
// family (racy snapshot).
func (l *RWLock) readersNow() int64 {
	if m := l.RWMode(); m != RWModeStriped {
		return int64(l.delegate(m).Readers())
	}
	return rwPresent(l.readers.Sum())
}

// writerQueueLen counts the writers at the lock (holder included) under the
// active family (racy snapshot).
func (l *RWLock) writerQueueLen() int {
	if m := l.RWMode(); m != RWModeStriped {
		return l.delegate(m).QueueLen()
	}
	return l.wmu.QueueLen()
}

// Readers returns the current reader count (racy snapshot; diagnostics
// only).
func (l *RWLock) Readers() int {
	if n := l.readersNow(); n > 0 {
		return int(n)
	}
	return 0
}

// WriteLocked reports whether a writer holds (or is acquiring) the lock
// (racy snapshot).
func (l *RWLock) WriteLocked() bool {
	if m := l.RWMode(); m != RWModeStriped {
		return l.delegate(m).WriteLocked()
	}
	return l.writer.Load() != 0
}

// transitionTo moves the lock to another mode. Only a writer holding the
// lock exclusively calls it, so the mode word takes a plain store — and that
// store is the holder's last access to holder state: the moment it lands,
// the new family's never-held write lock is up for grabs. The read mark
// moves to the new family's clock first, so the first period there counts
// its own reads.
func (l *RWLock) transitionTo(to RWMode, reason string) {
	from := l.RWMode()
	if from == to {
		return
	}
	l.ensureSub(to)
	l.readMark = l.readClock(to)
	l.transitions.Add(1)
	if l.stats != nil {
		l.stats.Transition(from.String(), to.String(), reason)
	}
	l.rwmode.Store(uint32(to))
}

// readClock is mode m's read clock: the native arrival clock (admitted
// reads, modulo 2³¹) or the phase-fair delegate's completed reads (modulo
// 2³⁰). The write-preferring delegate keeps none.
func (l *RWLock) readClock(m RWMode) uint32 {
	switch m {
	case RWModeStriped:
		return rwArrivals(l.readers.Sum())
	case RWModePhaseFair:
		return l.subs.Load().pf.ReadsDone()
	}
	return 0
}

// periodReads returns the reads mode m counted since the last mark and
// moves the mark. The two clocks are compared modulo 2³⁰, far above a
// period's reads; a step below zero — a native arrival counted at the last
// mark that has since backed out — reads as none.
func (l *RWLock) periodReads(m RWMode) uint32 {
	now := l.readClock(m)
	d := int32((now-l.readMark)<<2) >> 2
	l.readMark = now
	return uint32(max(d, 0))
}

// handedOff is one look at the writer ticket's handoff counter: 1 if it
// moved since the last look (recorded in *seen), else 0.
func (l *RWLock) handedOff(seen *uint32) uint64 {
	h := l.wmu.Handoffs()
	if h == *seen {
		return 0
	}
	*seen = h
	return 1
}

// tryRLockNative attempts a native read share without waiting: the
// locks.RWStriped arrival, the mode re-check and the inflation trigger.
// decided is false when the mode moved underneath us and the caller must
// re-dispatch.
func (l *RWLock) tryRLockNative(tok uint64) (ok, decided bool) {
	if l.writer.Load() != 0 {
		return false, true
	}
	n := l.readers.AddGet(tok, rwArrival)
	if l.writer.Load() == 0 {
		if l.RWMode() != RWModeStriped {
			// The mode moved while we arrived: this share counts toward a
			// protocol no writer is watching any more. Return it, arrival
			// and all, before anyone could mistake it for an admission.
			l.readers.Add(tok, -rwArrival)
			return false, false
		}
		if rwPresent(n) >= rwInflateReaders {
			l.readers.Inflate()
		}
		return true, true
	}
	// A writer holds or is draining: back our arrival out so the drain can
	// finish and the clock counts only admissions.
	l.readers.Add(tok, -rwArrival)
	return false, true
}

// rlockNative waits for a native read share after tryRLockNative met a
// writer: the locks.RWStriped wait plus the starvation signal. It reports
// whether the share was taken — false means the lock left rwstriped while we
// waited and the caller must re-dispatch — how many writer phases bypassed
// us, and whether we raised the starvation signal. A bypass is a look at the
// writer ticket's handoff counter that finds it moved: a reader the
// scheduler kept off the processor across eight hand-offs saw one, not
// eight — it was descheduled, not starved, and phase-fair admission would
// not have run it sooner. The rounds backstop covers a single writer that
// holds without handing off.
func (l *RWLock) rlockNative(tok uint64) (ok bool, bypassed uint64, starved bool) {
	var s backoff.Spinner
	seen := l.wmu.Handoffs()              // the handoff counter at our last look
	bound := uint64(l.cfg.starveBackouts) // on the writers' line: read only once we wait
	rounds := uint64(1)                   // failed tries: the caller's was the first
	for {
		if starved {
			// Once the signal is raised there is nothing left to count: wait
			// for the flag like locks.RWStriped, with no re-attempts churning
			// the writer's drain. A transition still releases us — the
			// transitioning writer drops the flag with the native write lock.
			for l.writer.Load() != 0 {
				s.Spin()
			}
		} else {
			// Bounded waiting round (see rwBackoutSpins), looking at the
			// handoff counter as it waits: a reader bypassed again and again
			// must raise the signal mid-wait, not once admitted. Both words
			// live on the shared line the spin is already polling.
			for i := 0; l.writer.Load() != 0 && i < rwBackoutSpins; i++ {
				if bypassed += l.handedOff(&seen); bypassed >= bound {
					starved = true
					l.starve.Store(1)
					break
				}
				s.Spin()
			}
		}
		ok, decided := l.tryRLockNative(tok)
		if !decided {
			return false, bypassed, starved
		}
		bypassed += l.handedOff(&seen)
		if !ok {
			rounds++
		}
		// The backstop product is computed in uint64: a deliberately huge
		// StarveBackouts ("never escalate") must not wrap into an
		// always-true threshold.
		if !starved && (bypassed >= bound || rounds >= rwStarveRoundsFactor*bound) {
			// Bypassed past the bound: ask for phase-fair admission. The
			// store lands on the shared line the writer stream already
			// owns, and the next Unlock acts on it — even if we got in just
			// now, so the next reader does not wait as long.
			starved = true
			l.starve.Store(1)
		}
		if ok {
			return true, bypassed, starved
		}
	}
}

// RLock acquires a read share under the active mode, re-dispatching if the
// mode changes while we wait. With telemetry on, the same loop also records
// the RArrive/RAcquired pair, the writer phases that bypassed us and the
// starvation event.
func (l *RWLock) RLock() {
	tok := stripe.Self()
	var a telemetry.Acq
	if l.stats != nil {
		a = l.stats.RArrive(tok)
	}
	contended, starved := false, false
	var phases uint64
	for {
		m := l.RWMode()
		if m == RWModeStriped {
			// The try first, the wait only behind a writer: the uncontended
			// read stays one call deep.
			ok, decided := l.tryRLockNative(tok)
			if !ok && decided {
				var b uint64
				var st bool
				ok, b, st = l.rlockNative(tok)
				phases += b
				contended = contended || b > 0 || st
				starved = starved || st
			}
			if ok {
				break
			}
			continue
		}
		d := l.delegate(m)
		if l.stats == nil {
			d.RLock()
		} else if !d.TryRLock() {
			contended = contended || d.WriteLocked()
			d.RLock()
		}
		if l.RWMode() == m {
			break
		}
		d.RUnlock()
	}
	if l.stats != nil {
		if phases > 0 {
			l.stats.RWaitedPhases(tok, phases)
		}
		if starved {
			l.stats.RStarvedEvent(tok)
		}
		a.RAcquired(contended)
	}
}

// TryRLock attempts to acquire a read share without waiting.
func (l *RWLock) TryRLock() bool {
	tok := stripe.Self()
	if l.stats == nil {
		return l.tryRLockLow(tok)
	}
	a := l.stats.RArrive(tok)
	if l.tryRLockLow(tok) {
		a.RAcquired(false)
		return true
	}
	a.RFailed()
	return false
}

// tryRLockLow is TryRLock without instrumentation: the mode-dispatch loop
// over the native try and the delegates. It only re-loops on a mode move
// observed mid-try, so it never waits. RLockCancel's polling also drives
// it, which is why it is factored out of TryRLock rather than inlined.
func (l *RWLock) tryRLockLow(tok uint64) bool {
	for {
		m := l.RWMode()
		if m == RWModeStriped {
			if ok, decided := l.tryRLockNative(tok); decided {
				return ok
			}
			continue
		}
		d := l.delegate(m)
		if !d.TryRLock() {
			return false
		}
		if l.RWMode() == m {
			return true
		}
		d.RUnlock()
	}
}

// RUnlock releases a read share. No mode transition can occur while any
// read share is outstanding — every transition is performed by a writer
// holding the lock exclusively — so the share was necessarily taken under
// the current mode.
func (l *RWLock) RUnlock() {
	tok := stripe.Self()
	if l.stats != nil {
		l.stats.RRelease(tok)
	}
	if m := l.RWMode(); m != RWModeStriped {
		l.delegate(m).RUnlock()
		return
	}
	l.readers.Add(tok, -1) // the arrival's clock tick stays: it was a read
}

// Lock acquires the write lock under the active mode, re-dispatching if
// the mode changes while we wait. Native acquisitions run the
// FIFO-ticket → flag → drain protocol; the drain's reader observations feed
// adaptation and its duration, on sampled acquisitions, feeds telemetry.
//
// The native arm re-checks the mode after taking the ticket but *before*
// raising the flag and draining: a writer that waited across a transition
// holds a lock the mode word no longer names, and letting it drain would
// mutate holder-only state (sawReaders) in a race with the genuine
// delegate holder. Once the check passes, no further transition is
// possible — we hold the native write lock, and transitions are made only
// by the holder — so the drain runs as the genuine holder and no post-drain
// check is needed.
func (l *RWLock) Lock() {
	tok := stripe.Self()
	var a telemetry.Acq
	if l.stats != nil {
		a = l.stats.Arrive(tok)
	}
	contended := false
	var m RWMode
	for {
		m = l.RWMode()
		if m == RWModeStriped {
			c := !l.wmu.TryLock()
			if c {
				l.wmu.Lock()
			}
			contended = contended || c
			if l.RWMode() != RWModeStriped {
				l.wmu.Unlock() // stale era: leave before touching anything
				continue
			}
			l.writer.Store(1)
			contended = l.drain(tok, a.Timed()) || contended
			break
		}
		d := l.delegate(m)
		c := !d.TryLock()
		if c {
			d.Lock()
		}
		contended = contended || c
		if l.RWMode() == m {
			break
		}
		d.Unlock()
	}
	l.wfam, l.wtok = uint8(m), uint32(tok)
	if l.stats != nil {
		a.Acquired(contended)
	}
}

// drain waits out present native readers, recording what it saw for
// adaptation and (on timed acquisitions) how long it stalled, and stripes
// the reader counter if it met anyone. Runs with the flag up and the ticket
// held; sawReaders accumulates until the next sampling boundary.
func (l *RWLock) drain(tok uint64, timed bool) (met bool) {
	var s backoff.Spinner
	var t0 time.Time
	timed = timed && l.stats != nil
	for rwPresent(l.readers.Sum()) != 0 {
		if !met {
			met = true
			if timed {
				t0 = time.Now()
			}
		}
		s.Spin()
	}
	if met {
		l.sawReaders = true
		if timed {
			l.stats.WriterDrained(tok, time.Since(t0))
		}
		l.readers.Inflate()
	}
	return met
}

// TryLock attempts to acquire the write lock without waiting. Like Lock,
// the native arm re-checks the mode right after taking the ticket, so
// everything after the check runs as the genuine holder.
func (l *RWLock) TryLock() bool {
	tok := stripe.Self()
	if l.stats == nil {
		return l.tryLockLow(tok)
	}
	a := l.stats.Arrive(tok)
	if l.tryLockLow(tok) {
		a.Acquired(false)
		return true
	}
	a.Failed()
	return false
}

// tryLockLow is TryLock without instrumentation, factored out so
// LockCancel's polling can drive the same protocol without inflating the
// arrival lanes. It only re-loops on a mode move observed mid-try.
func (l *RWLock) tryLockLow(tok uint64) bool {
	for {
		m := l.RWMode()
		if m == RWModeStriped {
			if !l.wmu.TryLock() {
				return false
			}
			if l.RWMode() != RWModeStriped {
				l.wmu.Unlock() // stale era: leave before touching anything
				continue
			}
			l.writer.Store(1)
			if rwPresent(l.readers.Sum()) != 0 {
				l.writer.Store(0)
				l.wmu.Unlock()
				l.readers.Inflate() // readers overlap writers
				return false
			}
		} else {
			d := l.delegate(m)
			if !d.TryLock() {
				return false
			}
			if l.RWMode() != m {
				d.Unlock()
				continue
			}
		}
		l.wfam, l.wtok = uint8(m), uint32(tok)
		return true
	}
}

// Unlock releases the write lock, running the sampled adaptation step
// first: the releasing writer is the only goroutine that may touch the
// holder section, and a mode change must be published before the old
// family's write lock hands over.
//
// Exclusivity effectively transfers at a transition's mode store, not at
// the physical release below — the new family's lock was never held, so
// its first writer can acquire the instant the mode names it. Everything
// that touches holder-only state therefore happens before tryAdaptRW (which
// in turn makes any transition its own final holder action): the
// hold-timer sample and the wfam/wtok reads are hoisted here, above the
// call.
func (l *RWLock) Unlock() {
	m := RWMode(l.wfam)
	if l.stats != nil {
		l.stats.Release(uint64(l.wtok))
	}
	l.tryAdaptRW()
	if m == RWModeStriped {
		l.writer.Store(0)
		l.wmu.Unlock()
		return
	}
	l.delegate(m).Unlock()
}

// tryAdaptRW is the write-side adaptation step, run on every release while
// still holding. The starvation signal is consumed out of band of the
// sampling cadence — it is already rate-limited by the StarveBackouts bound
// a reader must cross to raise it, and making a starving reader wait out a
// sampling period would defeat the point. Everything else happens every
// samplePeriod write sections: multiprogramming check (blocking mode),
// write-mix detection (phase-fair), calm detection (back to rwstriped), and
// the reader-free deflation countdown. The period's reads come off the
// active family's read clock (periodReads).
//
// All fields are writer-only, ordered by the held write lock — which is
// why every transitionTo below is the LAST holder-state access on its path:
// the moment the mode store lands, the new family's (never-held) write lock
// is up for grabs and its first holder owns this section. Deflation is no
// transition: the native wmu stays held through Unlock.
func (l *RWLock) tryAdaptRW() {
	l.writes++
	starved := l.starve.Load() != 0
	if starved {
		l.starve.Store(0)
	}
	boundary := l.sampleIn == 1
	l.sampleIn--
	if boundary {
		l.sampleIn = l.cfg.samplePeriod
	}
	if starved && RWMode(l.wfam) == RWModeStriped {
		l.sawReaders = false
		l.streakPeriods, l.calmPeriods, l.idlePeriods = 0, 0, 0
		l.transitionTo(RWModePhaseFair,
			fmt.Sprintf("reader bypassed past %d writer phases", l.cfg.starveBackouts))
		return
	}
	if !boundary {
		return
	}
	saw := l.sawReaders
	l.sawReaders = false
	q := l.writerQueueLen() // includes us: a queue ≥ 2 means another writer waits right now
	mode := l.RWMode()
	reads, period := l.periodReads(mode), uint64(l.cfg.samplePeriod)

	if l.monitor().Multiprogrammed() {
		// Contended locks must block so preempted holders get the
		// processor back (paper §3's mutex rationale, applied to both
		// sides); a near-idle lock stays where it is.
		l.streakPeriods, l.calmPeriods = 0, 0
		if mode != RWModeWritePref && (q >= 2 || saw || l.readersNow() > 0) {
			l.transitionTo(RWModeWritePref, fmt.Sprintf("multiprogramming (writer queue %d)", q))
		}
		return
	}

	// The write mix weighs a striped write's sweep: an inline counter has
	// nothing to sweep.
	striped := l.readers.Inflated()
	switch mode {
	case RWModeWritePref:
		// The multiprogramming flag dropped (the monitor makes it sticky,
		// so this is already damped): return to the native spin protocol.
		l.streakPeriods, l.calmPeriods = 0, 0
		l.transitionTo(RWModeStriped, "no multiprogramming")
	case RWModePhaseFair:
		// Calm is no writer queued behind the holder. A key with reader
		// stripes must also have reads that stopped or outnumber writes
		// enough for the stripes to win again: a write-mixed striped key
		// stays, phase-fair being its faster family.
		if q >= 2 || striped && reads > 0 && uint64(reads) < rwMixToNative*period {
			l.calmPeriods = 0
			return
		}
		l.calmPeriods++
		if l.calmPeriods >= l.cfg.fairPeriods {
			l.calmPeriods = 0
			l.transitionTo(RWModeStriped,
				fmt.Sprintf("writers calm for %d periods, %d reads in the last %d writes", l.cfg.fairPeriods, reads, period))
		}
	default:
		if striped && reads > 0 && uint64(reads) < rwMixToPhaseFair*period {
			if l.streakPeriods < math.MaxUint8 {
				l.streakPeriods++
			}
			if l.streakPeriods >= l.cfg.fairPeriods {
				l.streakPeriods = 0
				l.transitionTo(RWModePhaseFair,
					fmt.Sprintf("write-mixed: %d reads in the last %d writes, %d periods running", reads, period, l.cfg.fairPeriods))
				return
			}
		} else {
			l.streakPeriods = 0
		}
		// Footprint housekeeping: periods in which no reader came fold the
		// stripes back inline (stripe.Counter.Deflate's holder-side
		// contract). Reader silence, not drain luck: the arrival clock
		// counts every read, where a drain meets a reader only when their
		// timing overlaps.
		if reads > 0 || rwPresent(l.readers.Sum()) != 0 {
			l.idlePeriods = 0
			return
		}
		if l.idlePeriods < math.MaxUint8 {
			l.idlePeriods++
		}
		if l.idlePeriods >= rwDeflatePeriods && l.readers.Deflate() {
			l.idlePeriods = 0
		}
	}
}

// RWStats is an observability snapshot of an adaptive RW lock.
type RWStats struct {
	RWMode      RWMode
	Writes      uint64 // completed write sections (approximate while held)
	Transitions uint64
	Readers     int // racy instantaneous reader count
}

// Stats returns a racy snapshot of the lock's counters.
func (l *RWLock) Stats() RWStats {
	return RWStats{
		RWMode:      l.RWMode(),
		Writes:      l.writes,
		Transitions: uint64(l.transitions.Load()),
		Readers:     l.Readers(),
	}
}
