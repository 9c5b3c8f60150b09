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
// arrival clock (rwArrivals): the reads admitted so far, modulo 2³². The
// write-mix rule reads the clock once per sampling period; a reader adds it
// for free.
const rwArrival = 1<<32 + 1

// rwPresent is the readers-present half of a reader-counter value.
func rwPresent(v int64) int64 { return int64(int32(v)) }

// rwArrivals is the arrival-clock half of a reader-counter value.
func rwArrivals(v int64) uint32 { return uint32(uint64(v-rwPresent(v)) >> 32) }

// rwInflateReaders mirrors locks.rwInflateReaders: an inline count update
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
// lock is born rwstriped with an inline reader cell and adapts. The zero
// value selects every default.
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
// fairness and blocking, not latency. The exception is a settled
// phase-fair lock without telemetry, whose every operation is the
// delegate's: its acquire and release paths call locks.RWPhaseFair
// directly.
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
	writes uint64 // completed write sections, up to the last phase-fair boundary in that mode (Stats)
	wtok   uint32 // telemetry only: the writer's stripe token (stripe.Self is 32 bits wide), repaid in Unlock
	// clock counts the sampling period (tick): in rwstriped and rwwritepref
	// the write sections until the next mode check, in rwphasefair the
	// delegate's writer ticket that opened the current period.
	clock   uint32
	pfFresh bool // set on entering rwphasefair, until the era's first release sets clock
	// Dwell counters for the two family decisions (byte-sized: they share
	// the holder line with the config).
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
//     it for the rest of the lock's life. That is no mode change.
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
	l.clock = l.cfg.samplePeriod
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
// its own reads, and the write clock restarts in the new family's form. A
// raised starvation signal belongs to the era being left: it is dropped, so
// it cannot send the next rwstriped era straight back.
func (l *RWLock) transitionTo(to RWMode, reason string) {
	from := l.RWMode()
	if from == to {
		return
	}
	l.ensureSub(to)
	l.readMark = l.readClock(to)
	if to == RWModePhaseFair {
		l.pfFresh = true
	} else {
		l.clock = l.cfg.samplePeriod
	}
	l.starve.Store(0)
	l.transitions.Add(1)
	if l.stats != nil {
		l.stats.Transition(from.String(), to.String(), reason)
	}
	l.rwmode.Store(uint32(to))
}

// readClock is mode m's read clock: the native arrival clock (admitted
// reads, modulo 2³²) or the phase-fair delegate's completed reads (modulo
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

// rwReadAcq is telemetry's record of one read acquisition while rlock's
// loop runs: the arrival, and the writer phases, contention and starvation
// the loop met.
type rwReadAcq struct {
	a                  telemetry.Acq
	tok                uint64
	phases             uint64
	contended, starved bool
}

// RLock acquires a read share under the active mode.
func (l *RWLock) RLock() { l.rlock(true) }

// TryRLock attempts to acquire a read share without waiting.
func (l *RWLock) TryRLock() bool { return l.rlock(false) }

// rlock is the read side's one dispatch loop, behind RLock (wait) and
// TryRLock: acquire a share under the active mode, and re-dispatch if the
// mode moved while we arrived or waited. A try only re-loops on such a
// move, so it never waits. With telemetry on, the same loop also records
// the RArrive and then exactly one RAcquired or RFailed, the writer phases
// that bypassed us and the starvation event.
//
// Without telemetry the phase-fair arm of a wait calls the concrete
// delegate, whose arrival inlines here, and the stripe token is hashed only
// in the native arm. The record lives behind a pointer that stays nil
// without telemetry, so such a read sets up no state before its arrival: a
// settled phase-fair read pays the mode load, the subs load and the
// delegate's fetch-and-add (DESIGN.md §10).
func (l *RWLock) rlock(wait bool) bool {
	var r *rwReadAcq
	if l.stats != nil {
		tok := stripe.Self()
		r = &rwReadAcq{a: l.stats.RArrive(tok), tok: tok}
	}
	ok := false
	for {
		m := l.RWMode()
		if m == RWModeStriped {
			// The try first, the wait only behind a writer: the uncontended
			// read stays one call deep.
			tok := stripe.Self()
			var decided bool
			ok, decided = l.tryRLockNative(tok)
			if !ok && decided && wait {
				var b uint64
				var st bool
				ok, b, st = l.rlockNative(tok)
				decided = ok // false: the mode moved while we waited
				if r != nil {
					r.phases += b
					r.contended = r.contended || b > 0 || st
					r.starved = r.starved || st
				}
			}
			if decided {
				break
			}
			continue
		}
		if m == RWModePhaseFair && r == nil && wait {
			pf := l.subs.Load().pf
			pf.RLock()
			if ok = l.RWMode() == m; ok {
				break
			}
			pf.RUnlock() // admitted under a family the word no longer names
			continue
		}
		d := l.delegate(m)
		if r == nil && wait {
			d.RLock()
		} else if !d.TryRLock() {
			if !wait {
				break
			}
			r.contended = r.contended || d.WriteLocked()
			d.RLock()
		}
		if ok = l.RWMode() == m; ok {
			break
		}
		d.RUnlock()
	}
	if r != nil {
		if r.phases > 0 {
			l.stats.RWaitedPhases(r.tok, r.phases)
		}
		if r.starved {
			l.stats.RStarvedEvent(r.tok)
		}
		if ok {
			r.a.RAcquired(r.contended)
		} else {
			r.a.RFailed()
		}
	}
	return ok
}

// RUnlock releases a read share. No mode transition can occur while any
// read share is outstanding — every transition is performed by a writer
// holding the lock exclusively — so the share was necessarily taken under
// the current mode.
func (l *RWLock) RUnlock() {
	m := l.RWMode()
	if m == RWModePhaseFair && l.stats == nil {
		l.subs.Load().pf.RUnlock()
		return
	}
	tok := stripe.Self()
	if l.stats != nil {
		l.stats.RRelease(tok)
	}
	if m != RWModeStriped {
		l.delegate(m).RUnlock()
		return
	}
	l.readers.Add(tok, -1) // the arrival's clock tick stays: it was a read
}

// Lock acquires the write lock under the active mode. Without telemetry
// it waits in lockW directly: a plain wait records nothing, and
// acquireW's frame made an uncontended phase-fair write 16 % slower
// (EXPERIMENTS.md, "A frame on the write path").
func (l *RWLock) Lock() {
	if l.stats == nil {
		l.lockW(true, 0, false)
		return
	}
	l.acquireW(true, nil)
}

// TryLock attempts to acquire the write lock without waiting.
func (l *RWLock) TryLock() bool { return l.acquireW(false, nil) }

// acquireW is the write side's one entry that records, behind TryLock,
// LockCancel (wait) and Lock with telemetry (wait, c nil): it runs lockW,
// and a cancellable wait polls lockW's try instead (LockCancel). With
// telemetry on it records one Arrive and then exactly one of Acquired,
// Failed or Aborted, and the holder keeps its stripe token for Unlock's
// release; polls count no further arrival.
func (l *RWLock) acquireW(wait bool, c *locks.Cancel) bool {
	var tok uint64
	var a telemetry.Acq
	if l.stats != nil {
		tok = stripe.Self()
		a = l.stats.Arrive(tok)
	}
	poll := wait && !c.Never()
	ok, contended := l.lockW(wait && !poll, tok, a.Timed())
	if poll && !ok {
		contended = true
		ok = locks.PollAcquire(func() bool { got, _ := l.lockW(false, tok, false); return got }, c)
	}
	if l.stats != nil {
		switch {
		case ok:
			l.wtok = uint32(tok)
			a.Acquired(contended)
		case wait:
			a.Aborted(c.TimedOut())
		default:
			a.Failed()
		}
	}
	return ok
}

// lockW is the write side's one dispatch loop: acquire the write lock under
// the active mode, waiting if wait is set, and re-dispatch if the mode moved
// while we waited. It reports whether the lock was taken and whether the
// acquisition met contention (a held lock or readers to drain); a try only
// re-loops on a mode move observed mid-try, so it never waits. Native
// acquisitions run the FIFO-ticket → flag → drain protocol; the drain's
// reader observations feed adaptation and its duration, on timed
// acquisitions, feeds telemetry. A try that meets readers lowers the flag
// and fails instead of draining.
//
// The native arm re-checks the mode after taking the ticket but *before*
// raising the flag and draining: a writer that waited across a transition
// holds a lock the mode word no longer names, and letting it drain would
// mutate holder-only state (sawReaders) in a race with the genuine
// delegate holder. Once the check passes, no further transition is
// possible — we hold the native write lock, and transitions are made only
// by the holder — so the drain runs as the genuine holder and no post-drain
// check is needed.
//
// Without telemetry the phase-fair arm of a wait calls the concrete
// delegate, and a wait on a delegate skips the try, as glk.Lock's loop
// does. A writer that acquired under a family the word no longer names
// completes the phase its ticket announced before it re-dispatches.
func (l *RWLock) lockW(wait bool, tok uint64, timed bool) (ok, contended bool) {
	for {
		m := l.RWMode()
		if m == RWModeStriped {
			if !l.wmu.TryLock() {
				if !wait {
					return false, true
				}
				contended = true
				l.wmu.Lock()
			}
			if l.RWMode() != RWModeStriped {
				l.wmu.Unlock() // stale era: leave before touching anything
				continue
			}
			l.writer.Store(1)
			if wait {
				return true, l.drain(tok, timed) || contended
			}
			if rwPresent(l.readers.Sum()) == 0 {
				return true, false
			}
			l.writer.Store(0)
			l.wmu.Unlock()
			l.readers.Inflate() // readers overlap writers
			return false, true
		}
		if m == RWModePhaseFair && l.stats == nil && wait {
			pf := l.subs.Load().pf
			pf.Lock()
			if l.RWMode() == m {
				return true, false
			}
			pf.Unlock()
			continue
		}
		d := l.delegate(m)
		if l.stats == nil && wait {
			d.Lock()
		} else if !d.TryLock() {
			if !wait {
				return false, true
			}
			contended = true
			d.Lock()
		}
		if l.RWMode() == m {
			return true, contended
		}
		d.Unlock()
	}
}

// drain waits out present native readers, recording what it saw for
// adaptation and (on timed acquisitions) how long it stalled, and stripes
// the reader counter if it met anyone. Runs with the flag up and the ticket
// held; sawReaders accumulates until the next sampling boundary.
func (l *RWLock) drain(tok uint64, timed bool) (met bool) {
	var s backoff.Spinner
	var t0 time.Time
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

// Unlock releases the write lock, running the sampled adaptation step
// first: the releasing writer is the only goroutine that may touch the
// holder section, and a mode change must be published before the old
// family's write lock hands over.
//
// The mode word read first names the family the write was acquired under:
// every transition is made by a holder in tryAdaptRW, after this read, and
// the acquisition re-checked the word while holding. A phase-fair write of
// a lock without telemetry that closes no sampling period (tick) is
// released with a static call and writes nothing on the holder line.
//
// Exclusivity effectively transfers at a transition's mode store, not at
// the physical release below — the new family's lock was never held, so
// its first writer can acquire the instant the mode names it. Everything
// that touches holder-only state therefore happens before tryAdaptRW (which
// in turn makes any transition its own final holder action): the
// hold-timer sample and the wtok read are hoisted here, above the call.
func (l *RWLock) Unlock() {
	m := l.RWMode()
	if m == RWModePhaseFair && l.stats == nil {
		pf := l.subs.Load().pf
		if !l.pfFresh && uint32(pf.Phases())-l.clock < l.cfg.samplePeriod-1 {
			pf.Unlock()
			return
		}
	}
	if l.stats != nil {
		l.stats.Release(uint64(l.wtok))
	}
	l.tryAdaptRW(m)
	if m == RWModeStriped {
		l.writer.Store(0)
		l.wmu.Unlock()
		return
	}
	l.delegate(m).Unlock()
}

// tick advances mode m's write clock by the write being released and
// reports whether that write closes a sampling period. In rwphasefair the
// clock is the delegate's writer-phase counter, which while we hold is our
// own ticket: the period opened at ticket clock closes at ticket
// clock+samplePeriod-1, the test Unlock's phase-fair release makes too.
// The era's first release takes its own ticket as the period's start
// (pfFresh): a writer that backed out of the delegate completed a phase
// with no write in it, and all such phases come before that release
// (DESIGN.md §10). A boundary folds the period's writes into writes.
func (l *RWLock) tick(m RWMode) bool {
	if m != RWModePhaseFair {
		l.writes++
		if l.clock--; l.clock != 0 {
			return false
		}
		l.clock = l.cfg.samplePeriod
		return true
	}
	t := uint32(l.subs.Load().pf.Phases())
	if l.pfFresh {
		l.pfFresh, l.clock = false, t
	}
	n := t - l.clock + 1
	if n < l.cfg.samplePeriod {
		return false
	}
	l.writes += uint64(n)
	l.clock = t + 1
	return true
}

// tryAdaptRW is the write-side adaptation step, run on every release of a
// write acquired under mode m while still holding (the phase-fair release
// in Unlock runs it only at a boundary). The starvation signal is consumed
// out of band of the sampling cadence — it is already rate-limited by the
// StarveBackouts bound a reader must cross to raise it, and making a
// starving reader wait out a sampling period would defeat the point.
// Everything else happens every samplePeriod write sections:
// multiprogramming check (blocking mode), write-mix detection
// (phase-fair) and calm detection (back to rwstriped). The period's reads
// come off the active family's read clock (periodReads).
//
// All fields are writer-only, ordered by the held write lock — which is
// why every transitionTo below is the LAST holder-state access on its path:
// the moment the mode store lands, the new family's (never-held) write lock
// is up for grabs and its first holder owns this section.
func (l *RWLock) tryAdaptRW(mode RWMode) {
	boundary := l.tick(mode)
	if mode == RWModeStriped && l.starve.Load() != 0 {
		l.sawReaders = false
		l.streakPeriods, l.calmPeriods = 0, 0
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
			}
		} else {
			l.streakPeriods = 0
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

// Stats returns a racy snapshot of the lock's counters. In rwphasefair the
// writes since the last boundary are the delegate's phases since the
// period's first ticket (tick).
func (l *RWLock) Stats() RWStats {
	m := l.RWMode()
	w := l.writes
	if m == RWModePhaseFair && !l.pfFresh {
		w += uint64(uint32(l.subs.Load().pf.Phases()) - l.clock)
	}
	return RWStats{
		RWMode:      m,
		Writes:      w,
		Transitions: uint64(l.transitions.Load()),
		Readers:     l.Readers(),
	}
}
