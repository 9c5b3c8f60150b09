// Package glk implements GLK, the generic lock of "Locking Made Easy"
// (Middleware'16, §3) — a lock that dynamically adapts, per lock object, to
// the contention it observes:
//
//   - low contention → ticket mode (a fast, fair spinlock);
//   - high contention → mcs mode (a scalable queue lock);
//   - multiprogramming → mutex mode (a blocking lock that releases the
//     processor to the scheduler).
//
// The lock collects contention statistics as it is used: every SamplePeriod
// critical sections it samples the queue length behind the lock, and every
// AdaptPeriod critical sections the current holder re-decides the mode from
// an exponential moving average of those samples. Multiprogramming is
// reported by a process-wide background monitor (package sysmon), exactly as
// in the paper. Different locks in one process can therefore run in
// different modes at the same time (cf. MySQL in the paper's §5.2). The
// policy itself — the 3/2 ticket↔mcs band, the 1.5 mutex floor, the EMA
// weight of 0.25 — is the paper's, fixed by its sensitivity analysis (§3.1);
// only the periods, the monitor and the initial mode are configurable.
//
// RWLock applies the same adapt-per-lock discipline to reader-writer
// admission: BRAVO-style striped readers whose counter stays one inline cell
// while readers are solitary, phase-fair admission when a writer stream
// starves readers or writes are frequent enough that a striped writer's
// sweep costs more than phase-fair reads, and a blocking write-preferring
// delegate under multiprogramming — with every transition and its reason
// observable, like Mode transitions (DESIGN.md §§9–10).
package glk

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"gls/internal/emastats"
	"gls/internal/pad"
	"gls/internal/stripe"
	"gls/internal/sysmon"
	"gls/locks"
	"gls/telemetry"
)

// Mode identifies which low-level algorithm a GLK lock is operating as.
type Mode uint32

// The three GLK modes (paper Figure 2).
const (
	ModeTicket Mode = iota + 1
	ModeMCS
	ModeMutex
)

// String returns the paper's lower-case mode name.
func (m Mode) String() string {
	switch m {
	case ModeTicket:
		return "ticket"
	case ModeMCS:
		return "mcs"
	case ModeMutex:
		return "mutex"
	default:
		return fmt.Sprintf("Mode(%d)", uint32(m))
	}
}

// Defaults from the paper's sensitivity analysis (§3.1).
const (
	// DefaultSamplePeriod is how often (in completed critical sections) the
	// queue length is sampled: "we set ... the sampling period to 128
	// critical sections".
	DefaultSamplePeriod = 128

	// DefaultAdaptPeriod is how often adaptation is attempted: "we set the
	// adaptation period to 4096 critical sections". With the default sample
	// period this yields 4096/128 = 32 queue samples per decision.
	DefaultAdaptPeriod = 4096
)

// The decision policy, also from §3.1. These are not configurable: no
// program in the repository ever set them, and the ablations that measured
// the alternatives found none that won (EXPERIMENTS.md, "Measured and
// removed").
const (
	// upThreshold is the average queuing above which ticket switches to
	// mcs: "TICKET is consistently faster than MCS when up to three
	// concurrent threads are accessing the lock".
	upThreshold = 3.0

	// downThreshold is the average queuing below which mcs switches back to
	// ticket; lower than upThreshold "to avoid frequent, unnecessary
	// transitions".
	downThreshold = 2.0

	// mutexQueueFloor is the average queuing below which a lock ignores the
	// multiprogramming flag: "locks that face close-to-zero contention ...
	// do not switch to mutex, but remain in ticket mode". Queue length
	// includes the holder, so 1.5 means "waiters are rare".
	mutexQueueFloor = 1.5

	// emaWeight is the smoothing factor for the queue-length moving average
	// that "hide[s] possible short-term workload fluctuations".
	emaWeight = 0.25
)

// deflateIdlePeriods is how many consecutive adaptation periods must
// sample nothing but the holder (every queue sample ≤ 1) before the holder
// folds an inflated presence counter back into its inline cell, returning
// the stripe.SpillBytes of heap, so a table whose contention storm has
// passed stops paying the storm's footprint. Deflation only runs in ticket
// mode, where nobody is counted — a lock in mcs or mutex mode (including
// the frozen InitialMode baselines) is counting arrivals and keeps its
// stripes.
const deflateIdlePeriods = 4

// Config sets what a program using GLK chooses: the sampling and
// adaptation periods, the multiprogramming monitor, a frozen or non-ticket
// starting mode for the paper's baselines, a transition trace and
// telemetry. The decision policy is the paper's and is not part of it. The
// zero value of every field selects the default. A Config is read once, by
// NewSettings (which New calls); later mutation has no effect.
type Config struct {
	// SamplePeriod is the queue-sampling period in critical sections.
	SamplePeriod uint64
	// AdaptPeriod is the adaptation period in critical sections. It must
	// be a multiple of SamplePeriod (adaptation happens on sampling
	// boundaries, every AdaptPeriod/SamplePeriod samples); Validate
	// rejects other values.
	AdaptPeriod uint64
	// Monitor supplies the multiprogramming flag. nil selects the shared
	// process-wide monitor, which is started on first use.
	Monitor *sysmon.Monitor
	// DisableAdaptation freezes the lock in its initial mode. The paper's
	// overhead experiments (Figure 6/7) compare against this configuration.
	// Sampling still runs (it feeds the queue statistics); only the mode
	// decision is skipped.
	DisableAdaptation bool
	// InitialMode is the mode a fresh lock starts in (default ModeTicket).
	// The paper's Figure 6 baseline "fix[es] the non-adaptive GLK to ticket
	// mode [or] to mcs mode". A lock born in mcs or mutex mode expects
	// contention, so it is built with its low-level lock allocated and its
	// presence counter pre-inflated.
	InitialMode Mode
	// OnTransition, if non-nil, is invoked (by the lock holder) after every
	// mode change with the old mode, new mode, and the triggering reason.
	// The paper's §4.3: "GLK can be configured to print the mode transitions
	// that it performs, as well as the reason behind each transition."
	OnTransition func(from, to Mode, reason string)
	// Stats, if non-nil, receives this lock's telemetry: arrivals,
	// contended acquisitions, TryLock failures, sampled wait/hold latencies
	// and queue lengths, and mode transitions (package telemetry). The
	// instrumented paths are selected once, at construction — a lock built
	// without Stats runs the exact uninstrumented hot path, gated by a
	// single predicted branch on the lock's already-hot line. The stats
	// object is also handed a presence sampler so telemetry reads this
	// lock's own measurement — ticket holders plus counted arrivals —
	// instead of keeping a duplicate (DESIGN.md §8).
	Stats *telemetry.LockStats
}

// withDefaults returns a copy of c with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.SamplePeriod == 0 {
		c.SamplePeriod = DefaultSamplePeriod
	}
	if c.AdaptPeriod == 0 {
		c.AdaptPeriod = DefaultAdaptPeriod
	}
	return c
}

// Validate reports configuration errors after defaulting.
func (c Config) Validate() error {
	d := c.withDefaults()
	if d.AdaptPeriod < d.SamplePeriod {
		return fmt.Errorf("glk: AdaptPeriod %d < SamplePeriod %d", d.AdaptPeriod, d.SamplePeriod)
	}
	if d.AdaptPeriod%d.SamplePeriod != 0 {
		// Adaptation happens on sampling boundaries (the adaptation period
		// is stored as a countdown of samples); a non-multiple would
		// silently shorten the configured adaptation period.
		return fmt.Errorf("glk: AdaptPeriod %d is not a multiple of SamplePeriod %d", d.AdaptPeriod, d.SamplePeriod)
	}
	// SamplePeriod is added to a 32-bit ticket number and the result compared
	// by signed distance (see sampleDue), so it must stay below 2^31.
	if d.SamplePeriod > math.MaxInt32 || d.AdaptPeriod/d.SamplePeriod > math.MaxUint32 {
		return fmt.Errorf("glk: periods %d/%d exceed the 32-bit clock range", d.SamplePeriod, d.AdaptPeriod)
	}
	switch d.InitialMode {
	case 0, ModeTicket, ModeMCS, ModeMutex:
	default:
		return fmt.Errorf("glk: invalid InitialMode %v", d.InitialMode)
	}
	return nil
}

// Settings is a validated Config in the form locks consult after
// construction: defaults filled in, periods as 32-bit reload values. It is
// immutable, so any number of locks share one: a Lock carries a pointer to
// it, not a copy (the copy was 40 of the idle lock's bytes). Config.Stats
// is not part of it — a statistics object belongs to one lock and is handed
// to Init beside the Settings.
type Settings struct {
	samplePeriod      uint32 // critical sections between queue samples
	adaptSamples      uint32 // adaptIn reload value, in samples
	initialMode       Mode
	disableAdaptation bool
	monitor           *sysmon.Monitor
	onTransition      func(from, to Mode, reason string)
}

// defaultSettings is what New(nil) and NewSettings(nil) hand out.
var defaultSettings = newSettings(Config{})

// NewSettings validates cfg and returns its shared form; nil selects all
// defaults. Invalid configurations panic, as in New. Embedders that create
// many locks from one Config (gls.Service) call this once and Init each
// lock from the result.
func NewSettings(cfg *Config) *Settings {
	if cfg == nil {
		return defaultSettings
	}
	return newSettings(*cfg)
}

func newSettings(c Config) *Settings {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	c = c.withDefaults()
	initial := c.InitialMode
	if initial == 0 {
		initial = ModeTicket
	}
	return &Settings{
		samplePeriod:      uint32(c.SamplePeriod),
		adaptSamples:      uint32(c.AdaptPeriod / c.SamplePeriod),
		initialMode:       initial,
		disableAdaptation: c.DisableAdaptation,
		monitor:           c.Monitor,
		onTransition:      c.OnTransition,
	}
}

// adaptShared is the part of a lock's adaptation state that arrivals read
// once the lock has left ticket mode: the mcs and mutex low-level locks and
// the presence counter. It is written when one of those is first built and
// when the counter inflates or deflates, never per acquisition, so mcs
// waiters' neighbours read a quiet line.
type adaptShared struct {
	mcs     atomic.Pointer[locks.MCSLock]   // published before mode becomes mcs
	mutex   atomic.Pointer[locks.MutexLock] // published before mode becomes mutex
	present stripe.Counter                  // arrivals that read the mode as mcs/mutex (see arrival)
}

// adaptHolder is the holder-only part: the statistics and the countdowns
// driving sampling and adaptation. In ticket mode it is touched on sampling
// boundaries only; in mcs and mutex modes every acquisition writes it. All
// of it is guarded by the lock itself — plain (non-atomic) updates are safe
// because the low-level lock orders them — except the three atomics, whose
// writers or readers are not the holder.
type adaptHolder struct {
	// numAcquired counts the acquisitions the ticket counter does not show:
	// those made in mcs/mutex modes, plus 2^32 for each time the ticket
	// clock's base has wrapped (see acquired).
	numAcquired uint64
	queueTotal  uint64       // sum of sampled queue lengths (paper's counter)
	queueEMA    emastats.EMA // moving average of queue samples
	// transitions, aborts and ticketSkips are the atomics on the holder
	// lines: transitions because outside readers poll it, the other two
	// because their writers are not the holder (departing waiters; a
	// goroutine handing back a ticket it took under a stale mode word). All
	// are rare events (32 bits suffice), and their write to a holder line
	// is the price of not spending another line on them.
	transitions  atomic.Uint32 // mode changes, for observability
	aborts       atomic.Uint32 // abandoned acquisitions, cumulative (see abortDepart)
	presentToken uint64        // mcs/mutex modes: the holder's stripe token, repaid (and its telemetry lane released) in Unlock
	sampleIn     uint32        // mcs/mutex modes: critical sections until the next queue sample
	adaptIn      uint32        // samples until the next adaptation decision
	acquiredMode Mode          // mcs/mutex modes: the mode the holder acquired in, 0 while free
	idlePeriods  uint8         // consecutive adaptation periods with max queue ≤ 1
	periodMaxQ   uint8         // max sampled queue this period, clamped at 255
	deflations   uint16        // presence-counter deflations, for observability
	lastAborts   uint32        // aborts value at the last sample, for the delta signal
	ticketSkips  atomic.Uint32 // ticket-lock releases that ended no critical section (see backOut)
	// primed records that the sampling boundaries passed before this state
	// existed have been entered into it (see prime). State built at Init has
	// no such history.
	primed bool
}

// adaptState is everything a Lock needs only once it is contended: built
// once, by whoever first needs it (state), and reached through the one
// pointer on the lock's line. A lock that is only ever acquired
// uncontended — nearly every key of a large table — never has one.
// Two line-aligned sections, so the words the holder writes per
// acquisition in mcs and mutex modes share no line with what arrivals read
// (layout_test.go).
type adaptState struct {
	adaptShared
	_ [(pad.CacheLineSize - unsafe.Sizeof(adaptShared{})%pad.CacheLineSize) % pad.CacheLineSize]byte
	adaptHolder
	_ [(pad.CacheLineSize - unsafe.Sizeof(adaptHolder{})%pad.CacheLineSize) % pad.CacheLineSize]byte
}

// Lock is a GLK adaptive lock (the paper's glk_t, Figure 3): the mode flag,
// the ticket lock, and a pointer to everything else. Construct with New, or
// embed one and call Init; the zero value is not usable.
//
// A Lock is one cache line (§3.2 pads every lock "for fairness and for
// avoiding false cache-line sharing"; layout_test.go pins the invariants),
// and in ticket mode — the mode every lock is born in and the only one an
// uncontended lock ever sees — that line is the whole lock: contention is
// read off the ticket words (next − owner, the paper's measurement), the
// ticket being served is the sampling clock, and nobody is counted, so an
// acquisition and its release are the ticket lock's two atomic
// read-modify-writes on the line and nothing else
// (TestFastPathLeavesHolderLinesAlone). A sampling boundary that finds no
// queue behind the holder moves the clock and stores nothing more: the
// statistics such a lock would have gathered follow from the clock (Stats).
//
// The rest — queue statistics, adaptation countdowns, the mcs and mutex
// low-level locks, the striped presence counter — is the adaptState, built
// by the first sampling boundary that sees a queue, the first abandoned or
// handed-back acquisition, or at Init for a lock born in mcs or mutex mode.
// An idle, never-contended lock — the overwhelming majority in a million-key
// table — is 1 cache line instead of the 15 a layout striped up front costs
// (DESIGN.md §8). Arrivals count themselves present only when they read the
// mode as mcs or mutex, where a goroutine can be at the lock without yet
// being in its queue (DESIGN.md §4); the counting and mcs's local spinning
// happen on the adaptState's lines, so in those modes this line is
// read-mostly.
//
// Invariant: the mode word is stable while the lock is held. Its only
// writer after construction is sampleAndAdapt, reached only by a goroutine
// that holds the low-level lock of the mode the word currently names and
// has not yet been handed the acquisition (having switched, it releases
// and retries: Figure 4, line 15). A caller that was handed the lock in
// mode m holds that same low-level lock, so nobody can reach the writer
// until it releases. Unlock relies on this to pick its release path from
// the mode word instead of remembering one.
type Lock struct {
	lockType atomic.Uint32 // current Mode
	// sampleAt is the ticket-mode sampling clock: the ticket whose holder
	// takes the next queue sample. Holder-only like the statistics, but it
	// lives here — in the alignment hole before the ticket words — because
	// every ticket-mode acquisition reads it and must not pull in another
	// line to do so; it is written once per SamplePeriod.
	sampleAt uint32
	ticket   locks.TicketCore // low-contention mode lock, always present
	stats    *telemetry.LockStats
	adapt    atomic.Pointer[adaptState] // nil until contention, an abort or a non-ticket InitialMode asks for it
	set      *Settings

	// Aux belongs to whoever embeds the Lock: GLK never reads or writes it.
	// It exists so that a table entry that is a Lock (gls) can keep the few
	// bits every look-up tests — which kind of entry this is, whether it is
	// still mapped — on the line the acquisition is about to touch anyway.
	Aux atomic.Uint32

	// lane is the stripe token of an instrumented ticket-mode holder, the
	// telemetry lane its Unlock releases on (an mcs/mutex-mode holder's is
	// the state's presentToken). Holder-only; it fills the line, so there
	// is no pad to add — and no room for another field (TestLockFootprint).
	lane uint64
}

var _ locks.Lock = (*Lock)(nil)

// New returns a GLK lock in ticket mode. cfg == nil selects all defaults.
// Invalid configurations panic: lock construction sites are static and a
// bad period is a programming error, not a runtime condition.
func New(cfg *Config) *Lock {
	l := new(Lock)
	var stats *telemetry.LockStats
	if cfg != nil {
		stats = cfg.Stats
	}
	l.Init(NewSettings(cfg), stats)
	return l
}

// Init readies a zero Lock in place — for one embedded in a larger object,
// where New's allocation would be a second one. stats is Config.Stats: nil
// for an uninstrumented lock. Init must happen before the lock is shared.
func (l *Lock) Init(set *Settings, stats *telemetry.LockStats) {
	l.set = set
	l.sampleAt = set.samplePeriod - 1 // tickets start at 0: the SamplePeriod-th acquisition samples
	if set.initialMode != ModeTicket {
		// A lock born in mcs or mutex mode expects contention, and is built
		// with its low-level lock allocated and its presence counter
		// inflated. One born in ticket mode needs no state until it sees a
		// queue: at the paper's thresholds a queue of one never changes the
		// mode.
		st := l.state()
		st.adaptIn, st.primed = set.adaptSamples, true
		l.ensureLow(set.initialMode)
	}
	l.lockType.Store(uint32(set.initialMode))
	if stats != nil {
		l.stats = stats
		stats.SetPresenceSampler(l.presentNow)
		stats.SetMode(set.initialMode.String())
	}
}

// state returns the lock's adaptation state, building it if this is the
// first call to need it. Builders may race — a sampling holder against a
// departing waiter — and exactly one state is ever published.
func (l *Lock) state() *adaptState {
	if st := l.adapt.Load(); st != nil {
		return st
	}
	st := new(adaptState)
	st.sampleIn = l.set.samplePeriod
	st.queueEMA = emastats.NewEMA(emaWeight)
	if l.adapt.CompareAndSwap(nil, st) {
		return st
	}
	return l.adapt.Load()
}

// prime enters into st the sampling boundaries the lock passed before it
// had a state. Each of them found a queue of one and moved the clock by
// exactly SamplePeriod — anything else would have built the state — so
// their number follows from sampleAt, and the statistics and the adaptation
// countdown continue as if every one had been recorded. Holder-only, on the
// state's first ticket-mode boundary, before sampleAt moves again.
func (l *Lock) prime(st *adaptState) {
	n := l.skippedSamples()
	if n > 0 {
		st.queueTotal = n
		st.queueEMA.Add(1)
	}
	st.adaptIn = l.set.adaptSamples - uint32(n%uint64(l.set.adaptSamples))
	st.primed = true
}

// skippedSamples is how many sampling boundaries a lock without a state has
// passed.
func (l *Lock) skippedSamples() uint64 {
	return (uint64(l.sampleAt)+1)/uint64(l.set.samplePeriod) - 1
}

// monitor returns the configured or shared multiprogramming monitor.
func (l *Lock) monitor() *sysmon.Monitor {
	if l.set.monitor != nil {
		return l.set.monitor
	}
	return sysmon.Shared()
}

// Mode returns the lock's current operating mode (racy snapshot).
func (l *Lock) Mode() Mode { return Mode(l.lockType.Load()) }

// Transitions returns the number of mode changes performed so far.
func (l *Lock) Transitions() uint64 {
	if st := l.adapt.Load(); st != nil {
		return uint64(st.transitions.Load())
	}
	return 0
}

// Aborts returns the number of acquisitions abandoned mid-wait (timeouts
// and cancellations), cumulative over the lock's life.
func (l *Lock) Aborts() uint64 {
	if st := l.adapt.Load(); st != nil {
		return uint64(st.aborts.Load())
	}
	return 0
}

// PresenceInflated reports whether the lock currently holds the striped
// form of its presence counter — i.e. whether it has left ticket mode (or
// was born outside it) and has not idled back since. Introspection for
// footprint accounting and tests.
func (l *Lock) PresenceInflated() bool {
	st := l.adapt.Load()
	return st != nil && st.present.Inflated()
}

// arrival is one acquisition attempt's presence bookkeeping. The rule, the
// same on every path (plain, TryLock, LockCancel, instrumented): a
// goroutine at the lock is counted in l.present exactly while the mode word
// it last read says mcs or mutex. One that last read ticket is not counted —
// it holds, or is about to take, a ticket, and the ticket words already say
// so. The two populations are disjoint, so ticket.QueueLen() +
// present.Sum() is everyone at the lock in every mode, including the
// stragglers of a mode switch still draining through the old low-level lock.
type arrival struct {
	tok     uint64 // stripe token; the plain paths take it when first counted
	counted bool
}

// count brings the caller's count in line with the mode word it just read.
// Between switches this is one predicted branch, inlined into the
// acquisition loops: nobody is counted in ticket mode, and an mcs/mutex-mode
// arrival counts itself once.
func (l *Lock) count(m Mode, a *arrival) {
	if (m != ModeTicket) != a.counted {
		l.recount(a)
	}
}

// recount flips the caller's count: in, taking its stripe token if it has
// none yet, or out. Either way the caller has read the mode as mcs or mutex
// at some point, so the state exists.
func (l *Lock) recount(a *arrival) {
	st := l.adapt.Load()
	a.counted = !a.counted
	if !a.counted {
		st.present.Add(a.tok, -1)
		return
	}
	if a.tok == 0 {
		a.tok = stripe.Self()
	}
	st.present.Add(a.tok, 1)
}

// depart takes back the caller's count, if any: it is leaving without the
// lock.
func (l *Lock) depart(a *arrival) {
	if a.counted {
		l.recount(a)
	}
}

// settle records what the Unlock of an mcs/mutex-mode acquisition needs: the
// holder stays counted until then. A ticket-mode holder is not counted and
// leaves everything but the lock's own line alone; its Unlock needs nothing
// remembered.
func (l *Lock) settle(m Mode, a *arrival) {
	if m != ModeTicket {
		st := l.adapt.Load()
		st.numAcquired++
		st.acquiredMode = m
		st.presentToken = a.tok
	}
}

// settleInstrumented is settle for an acquisition with telemetry, which
// also remembers the lane its Unlock will release on: in ticket mode on the
// lock's own line, which the holder has just written anyway; in the other
// modes it is the token settle keeps.
func (l *Lock) settleInstrumented(m Mode, a *arrival) {
	if m == ModeTicket {
		l.lane = a.tok
		return
	}
	l.settle(m, a)
}

// backOut releases mode m's low-level lock without a critical section
// having run under it: the mode word moved while the caller waited, or the
// caller itself just moved it. Ticket-mode acquisitions are counted off the
// owner word, which this release is about to advance, so it is noted for
// Stats to take back.
func (l *Lock) backOut(m Mode) {
	if m == ModeTicket {
		l.state().ticketSkips.Add(1)
	}
	l.unlockLow(m)
}

// Lock acquires l, adapting the mode if the statistics call for it
// (paper Figure 4).
func (l *Lock) Lock() {
	if l.stats != nil {
		l.lockInstrumented()
		return
	}
	var a arrival
	for {
		cur := Mode(l.lockType.Load())
		l.count(cur, &a)
		l.lockLow(cur)
		// Re-check the mode: another holder may have adapted while we
		// waited on the (now stale) low-level lock.
		if Mode(l.lockType.Load()) == cur && !(l.sampleDue(cur) && l.sampleAndAdapt(cur)) {
			l.settle(cur, &a)
			return
		}
		l.backOut(cur)
	}
}

// lockInstrumented is Lock's telemetry twin: same adaptation loop, plus a
// try-first probe of the low-level lock so a blocked arrival is counted as
// a contended acquisition, and the Arrive/Acquired hook pair around it.
func (l *Lock) lockInstrumented() {
	a := arrival{tok: stripe.Self()}
	acq := l.stats.Arrive(a.tok)
	contended := false
	for {
		cur := Mode(l.lockType.Load())
		l.count(cur, &a)
		if !l.tryLockLow(cur) {
			contended = true
			l.lockLow(cur)
		}
		if Mode(l.lockType.Load()) == cur && !(l.sampleDue(cur) && l.sampleAndAdapt(cur)) {
			l.settleInstrumented(cur, &a)
			acq.Acquired(contended)
			return
		}
		l.backOut(cur)
	}
}

// TryLock attempts to acquire l without waiting.
func (l *Lock) TryLock() bool {
	if l.stats != nil {
		return l.tryLockInstrumented()
	}
	var a arrival
	for {
		cur := Mode(l.lockType.Load())
		l.count(cur, &a)
		if !l.tryLockLow(cur) {
			l.depart(&a)
			return false
		}
		if Mode(l.lockType.Load()) == cur && !(l.sampleDue(cur) && l.sampleAndAdapt(cur)) {
			l.settle(cur, &a)
			return true
		}
		l.backOut(cur)
	}
}

// tryLockInstrumented is TryLock's telemetry twin.
func (l *Lock) tryLockInstrumented() bool {
	a := arrival{tok: stripe.Self()}
	acq := l.stats.Arrive(a.tok)
	for {
		cur := Mode(l.lockType.Load())
		l.count(cur, &a)
		if !l.tryLockLow(cur) {
			l.depart(&a)
			acq.Failed()
			return false
		}
		if Mode(l.lockType.Load()) == cur && !(l.sampleDue(cur) && l.sampleAndAdapt(cur)) {
			l.settleInstrumented(cur, &a)
			acq.Acquired(false)
			return true
		}
		l.backOut(cur)
	}
}

// Unlock releases l. It must be called by the goroutine that acquired it.
// The release path is picked from the mode word, which cannot move while
// the caller holds the lock (see the invariant on Lock); a caller that does
// not hold it panics before anything is written.
func (l *Lock) Unlock() {
	if m := Mode(l.lockType.Load()); m != ModeTicket {
		l.unlockCounted(m)
		return
	}
	if !l.ticket.Locked() {
		panic("glk: Unlock of unlocked lock")
	}
	if l.stats != nil {
		// Record the hold sample while still holding: the hold timer is
		// holder-only state.
		l.stats.Release(l.lane)
	}
	l.ticket.Unlock()
}

// unlockCounted is Unlock in mcs and mutex modes, whose holder is counted
// present: the count taken in Lock/TryLock is repaid while still holding
// the lock (presentToken is holder-only state).
func (l *Lock) unlockCounted(m Mode) {
	st := l.adapt.Load()
	if st == nil || st.acquiredMode != m {
		panic("glk: Unlock of unlocked lock")
	}
	st.acquiredMode = 0
	if l.stats != nil {
		l.stats.Release(st.presentToken)
	}
	st.present.Add(st.presentToken, -1)
	l.unlockLow(m)
}

// ensureLow makes sure mode m's low-level lock exists before the mode word
// can point at it. The ticket lock is inline; mcs and mutex are allocated
// on the first transition to (or construction in) their mode — rare,
// holder-only events, so a plain atomic publish suffices: arrivals only
// dereference the pointer after loading a mode word that was stored after
// the pointer. Leaving ticket mode is also when arrivals start being
// counted, so the presence spill is allocated here too: the counting never
// writes the lock's own line, which mcs waiters' neighbours read.
func (l *Lock) ensureLow(m Mode) {
	st := l.adapt.Load()
	switch m {
	case ModeTicket:
		return
	case ModeMCS:
		if st.mcs.Load() == nil {
			st.mcs.Store(locks.NewMCS())
		}
	case ModeMutex:
		if st.mutex.Load() == nil {
			st.mutex.Store(locks.NewMutex())
		}
	}
	st.present.Inflate()
}

// mcs and mutex return the low-level locks of those modes; the caller has
// read a mode word that names the one it asks for, so it exists.
func (l *Lock) mcs() *locks.MCSLock     { return l.adapt.Load().mcs.Load() }
func (l *Lock) mutex() *locks.MutexLock { return l.adapt.Load().mutex.Load() }

// lockLow acquires the low-level lock for mode m.
func (l *Lock) lockLow(m Mode) {
	switch m {
	case ModeTicket:
		l.ticket.Lock()
	case ModeMCS:
		l.mcs().Lock()
	case ModeMutex:
		l.mutex().Lock()
	default:
		panic(fmt.Sprintf("glk: corrupt mode %v (use glk.New)", m))
	}
}

// tryLockLow try-acquires the low-level lock for mode m.
func (l *Lock) tryLockLow(m Mode) bool {
	switch m {
	case ModeTicket:
		return l.ticket.TryLock()
	case ModeMCS:
		return l.mcs().TryLock()
	case ModeMutex:
		return l.mutex().TryLock()
	default:
		panic(fmt.Sprintf("glk: corrupt mode %v (use glk.New)", m))
	}
}

// unlockLow releases the low-level lock for mode m.
func (l *Lock) unlockLow(m Mode) {
	switch m {
	case ModeTicket:
		l.ticket.Unlock()
	case ModeMCS:
		l.mcs().Unlock()
	case ModeMutex:
		l.mutex().Unlock()
	default:
		panic(fmt.Sprintf("glk: corrupt mode %v (use glk.New)", m))
	}
}

// presentNow is how many goroutines are at the lock, holder included: those
// holding a ticket plus those counted present (see arrival). In ticket mode
// it is the paper's ticket distance, plus any stragglers of an mcs/mutex
// spell still draining; in mcs and mutex modes the presence count, plus any
// stragglers still holding tickets. It is the queue sample and the gauge
// handed to telemetry; safe from any goroutine.
func (l *Lock) presentNow() int64 {
	n := int64(l.ticket.QueueLen())
	if st := l.adapt.Load(); st != nil {
		n += st.present.Sum()
	}
	return n
}

// sampleDue reports whether the caller, who holds the low-level lock for
// the current mode cur, is on a sampling boundary. In ticket mode the clock
// is the ticket being served — owner, which is the caller's own ticket while
// it holds the lock — against sampleAt, by signed distance so that the
// 32-bit wrap, and owner jumping over abandoned tickets or passes made under
// a stale mode word, only ever make a sample due, never lose one: nothing is
// written. In mcs and mutex modes, where the state's holder section is
// written per acquisition anyway, it is a countdown. Either is cheap enough to keep
// running when adaptation is disabled, so frozen locks still feed the queue
// statistics. (Split from sampleAndAdapt so that the test inlines into the
// acquisition loops and an acquisition between boundaries makes no call.)
func (l *Lock) sampleDue(cur Mode) bool {
	if cur == ModeTicket {
		return int32(l.ticket.Handoffs()-l.sampleAt) >= 0
	}
	st := l.adapt.Load()
	st.sampleIn--
	return st.sampleIn == 0
}

// sampleAndAdapt is the statistics/adaptation step of a sampling boundary
// (sampleDue): rewind the clock, record a queue sample, run the footprint
// housekeeping, and — on adaptation boundaries — re-decide the mode. It
// returns true when the mode changed, in which case the caller must release
// the low-level lock and restart (paper Figure 4, line 15). It is the only
// writer of the mode word after construction (see the invariant on Lock).
//
// A lock with no adaptation state that finds nobody behind the holder does
// the first of those only: the sample it skips is a queue of one, like
// every sample before it, and no run of those changes the mode (one is
// below downThreshold and mutexQueueFloor). The first boundary that does
// see a queue builds the state and enters the skipped samples into it
// (prime).
func (l *Lock) sampleAndAdapt(cur Mode) bool {
	st := l.adapt.Load()
	period := l.set.samplePeriod
	if cur == ModeTicket {
		// The caller's own ticket, t, sets the clock to t + period and its
		// base to t + 1. Once either goes round the 32-bit counter the lock
		// needs a state: the skipped samples no longer follow from the
		// clock, and the 2^32 the base drops are kept there (see acquired).
		t := l.ticket.Handoffs()
		next := t + period
		if st == nil {
			if l.ticket.QueueLen() <= 1 && next > l.sampleAt {
				l.sampleAt = next
				return false
			}
			st = l.state()
		}
		if !st.primed {
			l.prime(st)
		}
		if t+1 < l.sampleAt-period+1 {
			st.numAcquired += 1 << 32
		}
		l.sampleAt = next
	} else {
		st.sampleIn = period
	}

	// The queue behind the lock, holder included.
	q := max(int(l.presentNow()), 0)
	// Fold aborts since the last sample into the queue signal: a waiter
	// that gave up was queued goroutines the instantaneous sample cannot
	// see anymore, and a timeout storm is exactly the contention regime the
	// mcs/mutex modes exist for. The clamp keeps one pathological burst
	// from saturating the EMA for many periods. One kind of departure the
	// sample does still see: an abandoned ticket stays in the ticket
	// distance until owner steps over it. So the departed are added only
	// beyond the number of tickets waiting (the holder's own, in ticket
	// mode, is not one of them) — merged by max, each departure counts once.
	if ab := st.aborts.Load(); ab != st.lastAborts {
		delta := int(min(ab-st.lastAborts, 64))
		st.lastAborts = ab
		waiting := l.ticket.QueueLen()
		if cur == ModeTicket {
			waiting--
		}
		q += max(delta-max(waiting, 0), 0)
	}
	if q > int(st.periodMaxQ) {
		st.periodMaxQ = uint8(min(q, 255)) // the deflation test is "≤ 1"; the clamp loses nothing
	}
	st.queueTotal += uint64(q)
	st.queueEMA.Add(float64(q))

	st.adaptIn--
	if st.adaptIn != 0 {
		return false
	}
	st.adaptIn = l.set.adaptSamples

	// Footprint housekeeping, independent of the mode decision (it runs
	// for frozen locks too, mirroring sampling): after deflateIdlePeriods
	// fully-uncontended periods in ticket mode, fold the spill a spell in
	// mcs or mutex mode left behind back into the inline cell. Stragglers
	// still counted in it divert sum-exactly (stripe.Counter.Deflate).
	if cur == ModeTicket && st.periodMaxQ <= 1 {
		if st.idlePeriods < deflateIdlePeriods {
			st.idlePeriods++
		}
		if st.idlePeriods >= deflateIdlePeriods && st.present.Inflated() {
			if st.present.Deflate() {
				st.deflations++
			}
			st.idlePeriods = 0
		}
	} else {
		st.idlePeriods = 0
	}
	st.periodMaxQ = 0

	if l.set.disableAdaptation {
		return false
	}
	target, reason := l.decide(cur)
	if target == cur {
		return false
	}
	l.ensureLow(target)
	l.lockType.Store(uint32(target))
	st.transitions.Add(1)
	if l.stats != nil {
		l.stats.Transition(cur.String(), target.String(), reason)
	}
	if l.set.onTransition != nil {
		l.set.onTransition(cur, target, reason)
	}
	return true
}

// decide picks the mode for the next adaptation period from the queue EMA
// and the multiprogramming flag.
func (l *Lock) decide(cur Mode) (Mode, string) {
	ema := &l.adapt.Load().queueEMA
	avg := ema.Value()
	if !ema.Seeded() {
		return cur, ""
	}

	if l.monitor().Multiprogrammed() {
		// While the flag is set, a lock already in mutex mode stays there;
		// the paper damps mutex→spinlock flapping by making the *flag*
		// sticky (the monitor demands exponentially more calm rounds), not
		// by letting locks bounce out early.
		if cur == ModeMutex {
			return cur, ""
		}
		// Contended locks must block; near-idle locks stay in ticket mode
		// "in order to complete these critical sections as fast as
		// possible" (paper §3).
		if avg >= mutexQueueFloor {
			return ModeMutex, fmt.Sprintf("multiprogramming (avg queue %.2f)", avg)
		}
		if cur != ModeTicket {
			return ModeTicket, fmt.Sprintf("near-zero queuing under multiprogramming (%.2f)", avg)
		}
		return cur, ""
	}

	// A reason is formatted only for a change of mode: an uncontended lock
	// comes through here every adaptation period to be told "ticket" again.
	switch {
	case avg > upThreshold:
		if cur == ModeMCS {
			return cur, ""
		}
		return ModeMCS, fmt.Sprintf("avg queue %.2f > %.2f", avg, upThreshold)
	case avg < downThreshold:
		if cur == ModeTicket {
			return cur, ""
		}
		return ModeTicket, fmt.Sprintf("avg queue %.2f < %.2f", avg, downThreshold)
	default:
		// Inside the hysteresis band: leaving mutex needs a decision even
		// when the band says "keep". Mid-band contention maps to mcs.
		if cur == ModeMutex {
			return ModeMCS, fmt.Sprintf("no multiprogramming (avg queue %.2f)", avg)
		}
		return cur, ""
	}
}

// Stats is an observability snapshot of a GLK lock.
type Stats struct {
	Mode        Mode
	Acquired    uint64  // critical sections entered (exact at rest)
	QueueEMA    float64 // smoothed queue length
	QueueTotal  uint64  // paper's queue_total counter
	Transitions uint64
	Aborts      uint64 // acquisitions abandoned mid-wait (timeouts + cancels)
	Deflations  uint64 // presence-counter spills folded back after idling in ticket mode
}

// Stats returns a racy snapshot of the lock's counters. Intended for
// logging and tests, not for synchronisation decisions. A lock that never
// built an adaptation state reports what its skipped samples would have
// recorded: one queue of one per boundary passed.
func (l *Lock) Stats() Stats {
	s := Stats{Mode: l.Mode(), Acquired: l.acquired()}
	st := l.adapt.Load()
	if st != nil && st.primed {
		s.QueueTotal, s.QueueEMA = st.queueTotal, st.queueEMA.Value()
	} else if n := l.skippedSamples(); n > 0 {
		s.QueueTotal, s.QueueEMA = n, 1
	}
	if st != nil {
		s.Transitions = uint64(st.transitions.Load())
		s.Aborts = uint64(st.aborts.Load())
		s.Deflations = uint64(st.deflations)
	}
	return s
}

// acquired derives the acquisition count. Ticket mode keeps no counter of
// its own: every release advances owner, so the acquisitions made in it are
// the distance owner has moved — less the abandoned tickets it stepped over
// and the passes handed back unused (backOut). The distance is taken from
// the clock's base, sampleAt − SamplePeriod + 1, which a boundary sets to
// just past its own ticket: signed, because that acquisition's release comes
// after, and short, so it stays right when owner wraps. The base itself is
// read as the count up to it; the 2^32 it drops each time round are added
// to numAcquired by the boundary that sees it wrap. Exact once the lock is
// at rest, a racy estimate while it is in use.
func (l *Lock) acquired() uint64 {
	base := l.sampleAt - l.set.samplePeriod + 1
	n := int64(base) + int64(int32(l.ticket.Handoffs()-base)) - int64(l.ticket.Abandons())
	if st := l.adapt.Load(); st != nil {
		n += int64(st.numAcquired) - int64(st.ticketSkips.Load())
	}
	return uint64(max(n, 0))
}
