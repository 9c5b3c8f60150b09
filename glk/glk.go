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
// different modes at the same time (cf. MySQL in the paper's §5.2).
//
// RWLock applies the same adapt-per-lock discipline to reader-writer
// admission: inline reader counting while readers are solitary, BRAVO-style
// striped readers under reader concurrency, phase-fair admission when a
// writer stream starves readers, and a blocking write-preferring delegate
// under multiprogramming — with every transition and its reason observable,
// like Mode transitions (DESIGN.md §§9–10).
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

	// DefaultUpThreshold is the average queuing above which ticket switches
	// to mcs: "TICKET is consistently faster than MCS when up to three
	// concurrent threads are accessing the lock".
	DefaultUpThreshold = 3.0

	// DefaultDownThreshold is the average queuing below which mcs switches
	// back to ticket; lower than UpThreshold "to avoid frequent, unnecessary
	// transitions".
	DefaultDownThreshold = 2.0

	// DefaultMutexQueueFloor is the average queuing below which a lock
	// ignores the multiprogramming flag: "locks that face close-to-zero
	// contention ... do not switch to mutex, but remain in ticket mode".
	// Queue length includes the holder, so 1.5 means "waiters are rare".
	DefaultMutexQueueFloor = 1.5

	// DefaultEMAWeight is the smoothing factor for the queue-length moving
	// average that "hide[s] possible short-term workload fluctuations".
	DefaultEMAWeight = 0.25
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

// Config tunes a GLK lock. The zero value of every field selects the
// default above. Configs are copied at lock construction; later mutation has
// no effect.
type Config struct {
	// SamplePeriod is the queue-sampling period in critical sections.
	SamplePeriod uint64
	// AdaptPeriod is the adaptation period in critical sections. It must
	// be a multiple of SamplePeriod (adaptation happens on sampling
	// boundaries, every AdaptPeriod/SamplePeriod samples); Validate
	// rejects other values.
	AdaptPeriod uint64
	// UpThreshold and DownThreshold bound the ticket↔mcs hysteresis band.
	UpThreshold   float64
	DownThreshold float64
	// MutexQueueFloor exempts near-uncontended locks from mutex mode.
	MutexQueueFloor float64
	// EMAWeight is the moving-average smoothing factor in (0, 1].
	EMAWeight float64
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
	// SampleLowLevelQueues chooses the queue measurement in mcs and mutex
	// modes: true selects the paper's own — a queue traversal in mcs mode,
	// the waiter count in mutex mode; the default (false) a presence count
	// kept while the lock is in those modes, which is robust to preempted
	// waiters that have not enqueued yet (see DESIGN.md §4). Ticket mode
	// uses the paper's measurement either way — the ticket−owner distance,
	// which is free and sees a waiter from the instant it takes its ticket;
	// the default only adds whoever a mode switch has left draining through
	// the other low-level lock. The flag exists for the ablation benchmarks
	// and for paper-faithful runs on machines with plenty of hardware
	// contexts.
	SampleLowLevelQueues bool
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
	// single predicted branch on the already-hot shared line. The stats
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
	if c.UpThreshold == 0 {
		c.UpThreshold = DefaultUpThreshold
	}
	if c.DownThreshold == 0 {
		c.DownThreshold = DefaultDownThreshold
	}
	if c.MutexQueueFloor == 0 {
		c.MutexQueueFloor = DefaultMutexQueueFloor
	}
	if c.EMAWeight == 0 {
		c.EMAWeight = DefaultEMAWeight
	}
	return c
}

// Validate reports configuration errors after defaulting.
func (c Config) Validate() error {
	d := c.withDefaults()
	if d.DownThreshold > d.UpThreshold {
		return fmt.Errorf("glk: DownThreshold %.2f > UpThreshold %.2f", d.DownThreshold, d.UpThreshold)
	}
	if d.EMAWeight <= 0 || d.EMAWeight > 1 {
		return fmt.Errorf("glk: EMAWeight %v out of (0,1]", d.EMAWeight)
	}
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

// lockShared is the section of a Lock that arriving goroutines touch: the
// mode word and stats pointer every arrival reads, the ticket words (GLK's
// only inline low-level lock) with the clock that times their sampling, the
// lazy presence counter, and the lazily-allocated mcs/mutex locks. In
// ticket mode this line carries the lock's whole fast path: between
// sampling boundaries an uncontended Lock/TryLock/Unlock reads and writes
// nothing else (TestFastPathLeavesHolderLinesAlone). In mcs and mutex modes
// the ticket words go quiet and presence is counted on the spill's own
// lines, so the line is read-mostly exactly when other goroutines spin
// elsewhere.
type lockShared struct {
	lockType atomic.Uint32 // current Mode
	// sampleAt is the ticket-mode sampling clock: the ticket whose holder
	// takes the next queue sample. Holder-only like the statistics, but it
	// lives here — in the alignment hole before the ticket words — because
	// every ticket-mode acquisition reads it and must not pull in a holder
	// line to do so; it is written once per SamplePeriod.
	sampleAt uint32
	ticket   locks.TicketCore // low-contention mode lock, always present
	stats    *telemetry.LockStats
	present  stripe.Counter                  // arrivals that read the mode as mcs/mutex (see arrival)
	mcs      atomic.Pointer[locks.MCSLock]   // published before mode becomes mcs
	mutex    atomic.Pointer[locks.MutexLock] // published before mode becomes mutex
}

// lockConfig is the stored form of a Config: the fields consulted after
// construction, compacted (periods as 32-bit reload values, the EMA weight
// folded into the EMA itself, Stats hoisted to the shared section,
// thresholds narrowed to float32 — they are human-chosen numbers like 3.0
// compared against a smoothed average, where single precision is
// indistinguishable, and the 12 bytes bought keep the holder section inside
// its two lines after the glsx abort counters). It lives on the holder
// lines because only the holder — inside sampleAndAdapt and decide — reads
// it.
type lockConfig struct {
	samplePeriod         uint32 // critical sections between queue samples
	adaptSamples         uint32 // adaptIn reload value, in samples
	upThreshold          float32
	downThreshold        float32
	mutexQueueFloor      float32
	disableAdaptation    bool
	sampleLowLevelQueues bool
	monitor              *sysmon.Monitor
	onTransition         func(from, to Mode, reason string)
}

// lockHolder is the holder-only section: the statistics, the countdowns
// driving sampling and adaptation, and the cold config. In ticket mode it is
// touched on sampling boundaries only; in mcs and mutex modes every
// acquisition writes it. All of it is guarded by the lock itself — plain
// (non-atomic) updates are safe because the low-level lock orders them —
// except the three atomics, whose writers or readers are not the holder.
type lockHolder struct {
	// numAcquired counts the acquisitions made in mcs/mutex modes plus the
	// ticket-mode ones up to the last sampling boundary; Stats adds the
	// rest off the ticket counter (see acquired).
	numAcquired uint64
	queueTotal  uint64       // sum of sampled queue lengths (paper's counter)
	queueEMA    emastats.EMA // moving average of queue samples
	// transitions, aborts and ticketSkips are the atomics on the holder
	// lines: transitions because outside readers poll it, the other two
	// because their writers are not the holder (departing waiters; a
	// goroutine handing back a ticket it took under a stale mode word). All
	// are rare events (32 bits suffice), and their write to a holder line
	// is the price of not spending a fourth line on them.
	transitions  atomic.Uint32 // mode changes, for observability
	aborts       atomic.Uint32 // abandoned acquisitions, cumulative (see abortDepart)
	presentToken uint64        // holder's stripe token, repaid in an mcs/mutex-mode Unlock
	sampleIn     uint32        // mcs/mutex modes: critical sections until the next queue sample
	adaptIn      uint32        // samples until the next adaptation decision
	acquiredMode Mode          // mcs/mutex modes: the mode the holder acquired in, 0 while free
	// The deflation bookkeeping is deliberately byte-sized: it shares the
	// alignment hole before cfg, keeping the holder section inside two
	// lines (TestLockFootprint).
	idlePeriods uint8         // consecutive adaptation periods with max queue ≤ 1
	periodMaxQ  uint8         // max sampled queue this period, clamped at 255
	deflations  uint16        // presence-counter deflations, for observability
	lastAborts  uint32        // aborts value at the last sample, for the delta signal
	ticketSkips atomic.Uint32 // ticket-lock releases that ended no critical section (see backOut)
	cfg         lockConfig
}

// Lock is a GLK adaptive lock (the paper's glk_t, Figure 3). It contains
// the mode flag, the underlying lock objects, and the statistics counters.
// Construct with New; the zero value is not usable.
//
// Field order is cache-line layout, not taxonomy (§3.2 pads every lock "for
// fairness and for avoiding false cache-line sharing"; layout_test.go pins
// the invariants). Two line-aligned sections:
//
//  1. lockShared — everything an arriving goroutine touches (one line);
//  2. lockHolder — statistics and config touched only by the current
//     holder (two lines).
//
// The mcs and mutex low-level locks, the striped presence spill, and the
// telemetry accumulator live behind pointers, allocated only when first
// needed: an idle, never-contended lock — the overwhelming majority in a
// million-key table — is 3 cache lines instead of the 15 an eagerly-striped
// layout costs (DESIGN.md §8).
//
// Ticket mode — the mode every lock is born in and the only one an
// uncontended lock ever sees — costs what the ticket lock costs: contention
// is read off the ticket words (next − owner, the paper's measurement),
// the ticket being served is the sampling clock, and nobody is counted, so
// an acquisition and its release are the ticket lock's two atomic
// read-modify-writes on the shared line and nothing else. Arrivals count
// themselves present only when they read the mode as mcs or mutex, where a
// goroutine can be at the lock without yet being in its queue (DESIGN.md
// §4); the spill that keeps that counting off the shared line is allocated
// on the way out of ticket mode, together with the low-level lock
// (ensureLow), so mcs's local-spinning guarantee never shares a line with
// arrival traffic.
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
	lockShared
	_ [(pad.CacheLineSize - unsafe.Sizeof(lockShared{})%pad.CacheLineSize) % pad.CacheLineSize]byte
	lockHolder
	// Trailing pad rounds the holder section up to its two full lines. If
	// lockHolder ever grows back to an exact multiple of the line size,
	// delete this field rather than leaving a zero-length trailing array (a
	// zero-size final field would itself add padding); TestLockFootprint
	// pins the whole-lines invariant either way.
	_ [(pad.CacheLineSize - unsafe.Sizeof(lockHolder{})%pad.CacheLineSize) % pad.CacheLineSize]byte
}

var _ locks.Lock = (*Lock)(nil)

// New returns a GLK lock in ticket mode. cfg == nil selects all defaults.
// Invalid configurations panic: lock construction sites are static and a
// bad period is a programming error, not a runtime condition.
func New(cfg *Config) *Lock {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	c = c.withDefaults()
	l := &Lock{}
	l.cfg = lockConfig{
		samplePeriod:         uint32(c.SamplePeriod),
		adaptSamples:         uint32(c.AdaptPeriod / c.SamplePeriod),
		upThreshold:          float32(c.UpThreshold),
		downThreshold:        float32(c.DownThreshold),
		mutexQueueFloor:      float32(c.MutexQueueFloor),
		monitor:              c.Monitor,
		onTransition:         c.OnTransition,
		disableAdaptation:    c.DisableAdaptation,
		sampleLowLevelQueues: c.SampleLowLevelQueues,
	}
	l.sampleIn = l.cfg.samplePeriod
	l.sampleAt = l.cfg.samplePeriod - 1 // tickets start at 0: the SamplePeriod-th acquisition samples
	l.adaptIn = l.cfg.adaptSamples
	l.queueEMA = emastats.NewEMA(c.EMAWeight)
	initial := c.InitialMode
	if initial == 0 {
		initial = ModeTicket
	}
	l.ensureLow(initial)
	l.lockType.Store(uint32(initial))
	if c.Stats != nil {
		l.stats = c.Stats
		l.stats.SetPresenceSampler(l.presentNow)
		l.stats.SetMode(initial.String())
	}
	return l
}

// monitor returns the configured or shared multiprogramming monitor.
func (l *Lock) monitor() *sysmon.Monitor {
	if l.cfg.monitor != nil {
		return l.cfg.monitor
	}
	return sysmon.Shared()
}

// Mode returns the lock's current operating mode (racy snapshot).
func (l *Lock) Mode() Mode { return Mode(l.lockType.Load()) }

// Transitions returns the number of mode changes performed so far.
func (l *Lock) Transitions() uint64 { return uint64(l.transitions.Load()) }

// Aborts returns the number of acquisitions abandoned mid-wait (timeouts
// and cancellations), cumulative over the lock's life.
func (l *Lock) Aborts() uint64 { return uint64(l.aborts.Load()) }

// PresenceInflated reports whether the lock currently holds the striped
// form of its presence counter — i.e. whether it has left ticket mode (or
// was born outside it) and has not idled back since. Introspection for
// footprint accounting and tests.
func (l *Lock) PresenceInflated() bool { return l.present.Inflated() }

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
// none yet, or out.
func (l *Lock) recount(a *arrival) {
	a.counted = !a.counted
	if !a.counted {
		l.present.Add(a.tok, -1)
		return
	}
	if a.tok == 0 {
		a.tok = stripe.Self()
	}
	l.present.Add(a.tok, 1)
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
// leaves the holder lines alone; its Unlock needs nothing remembered.
func (l *Lock) settle(m Mode, a *arrival) {
	if m != ModeTicket {
		l.numAcquired++
		l.acquiredMode = m
		l.presentToken = a.tok
	}
}

// backOut releases mode m's low-level lock without a critical section
// having run under it: the mode word moved while the caller waited, or the
// caller itself just moved it. Ticket-mode acquisitions are counted off the
// owner word, which this release is about to advance, so it is noted for
// Stats to take back.
func (l *Lock) backOut(m Mode) {
	if m == ModeTicket {
		l.ticketSkips.Add(1)
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
			l.settle(cur, &a)
			l.presentToken = a.tok // Release's lane, in every mode
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
			l.settle(cur, &a)
			l.presentToken = a.tok
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
		l.stats.Release(l.presentToken)
	}
	l.ticket.Unlock()
}

// unlockCounted is Unlock in mcs and mutex modes, whose holder is counted
// present: the count taken in Lock/TryLock is repaid while still holding
// the lock (presentToken is holder-only state).
func (l *Lock) unlockCounted(m Mode) {
	if l.acquiredMode != m {
		panic("glk: Unlock of unlocked lock")
	}
	l.acquiredMode = 0
	if l.stats != nil {
		l.stats.Release(l.presentToken)
	}
	l.present.Add(l.presentToken, -1)
	l.unlockLow(m)
}

// ensureLow makes sure mode m's low-level lock exists before the mode word
// can point at it. The ticket lock is inline; mcs and mutex are allocated
// on the first transition to (or construction in) their mode — rare,
// holder-only events, so a plain atomic publish suffices: arrivals only
// dereference the pointer after loading a mode word that was stored after
// the pointer. Leaving ticket mode is also when arrivals start being
// counted, so the presence spill is allocated here too: the counting never
// writes the shared line that mcs waiters' neighbours read.
func (l *Lock) ensureLow(m Mode) {
	switch m {
	case ModeTicket:
		return
	case ModeMCS:
		if l.mcs.Load() == nil {
			l.mcs.Store(locks.NewMCS())
		}
	case ModeMutex:
		if l.mutex.Load() == nil {
			l.mutex.Store(locks.NewMutex())
		}
	}
	l.present.Inflate()
}

// lockLow acquires the low-level lock for mode m.
func (l *Lock) lockLow(m Mode) {
	switch m {
	case ModeTicket:
		l.ticket.Lock()
	case ModeMCS:
		l.mcs.Load().Lock()
	case ModeMutex:
		l.mutex.Load().Lock()
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
		return l.mcs.Load().TryLock()
	case ModeMutex:
		return l.mutex.Load().TryLock()
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
		l.mcs.Load().Unlock()
	case ModeMutex:
		l.mutex.Load().Unlock()
	default:
		panic(fmt.Sprintf("glk: corrupt mode %v (use glk.New)", m))
	}
}

// presentNow is how many goroutines are at the lock, holder included: those
// holding a ticket plus those counted present (see arrival). In ticket mode
// it is the paper's ticket distance, plus any stragglers of an mcs/mutex
// spell still draining; in mcs and mutex modes the presence count, plus any
// stragglers still holding tickets. It is the default queue sample and the
// gauge handed to telemetry; safe from any goroutine (unlike queueLenLow's
// mcs traversal).
func (l *Lock) presentNow() int64 {
	return int64(l.ticket.QueueLen()) + l.present.Sum()
}

// queueLenLow samples the low-level lock's own queue for mode m — the
// paper's measurement. Must be called by the holder (the MCS sample
// traverses the waiter queue, which is only safe from inside the lock).
func (l *Lock) queueLenLow(m Mode) int {
	switch m {
	case ModeTicket:
		return l.ticket.QueueLen()
	case ModeMCS:
		if q := l.mcs.Load(); q != nil {
			return q.QueueLen()
		}
		return 0
	case ModeMutex:
		if q := l.mutex.Load(); q != nil {
			return q.QueueLen()
		}
		return 0
	default:
		return 0
	}
}

// sampleDue reports whether the caller, who holds the low-level lock for
// the current mode cur, is on a sampling boundary. In ticket mode the clock
// is the ticket being served — owner, which is the caller's own ticket while
// it holds the lock — against sampleAt, by signed distance so that the
// 32-bit wrap, and owner jumping over abandoned tickets or passes made under
// a stale mode word, only ever make a sample due, never lose one: nothing is
// written. In mcs and mutex modes, where the holder lines are written per
// acquisition anyway, it is a countdown. Either is cheap enough to keep
// running when adaptation is disabled, so frozen locks still feed the queue
// statistics. (Split from sampleAndAdapt so that the test inlines into the
// acquisition loops and an acquisition between boundaries makes no call.)
func (l *Lock) sampleDue(cur Mode) bool {
	if cur == ModeTicket {
		return int32(l.ticket.Handoffs()-l.sampleAt) >= 0
	}
	l.sampleIn--
	return l.sampleIn == 0
}

// sampleAndAdapt is the statistics/adaptation step of a sampling boundary
// (sampleDue): rewind the clock, record a queue sample, run the footprint
// housekeeping, and — on adaptation boundaries — re-decide the mode. It
// returns true when the mode changed, in which case the caller must release
// the low-level lock and restart (paper Figure 4, line 15). It is the only
// writer of the mode word after construction (see the invariant on Lock).
func (l *Lock) sampleAndAdapt(cur Mode) bool {
	if cur == ModeTicket {
		// Fold the tickets served since the last boundary, this one
		// included, into numAcquired (see acquired) and set the next one.
		t := l.ticket.Handoffs()
		l.numAcquired += uint64(t-l.sampleAt) + uint64(l.cfg.samplePeriod)
		l.sampleAt = t + l.cfg.samplePeriod
	} else {
		l.sampleIn = l.cfg.samplePeriod
	}

	// The queue behind the lock, holder included.
	var q int
	if l.cfg.sampleLowLevelQueues {
		q = l.queueLenLow(cur)
	} else {
		q = int(l.presentNow())
	}
	if q < 0 {
		q = 0
	}
	// Fold aborts since the last sample into the queue signal: a waiter
	// that gave up was queued goroutines the instantaneous sample cannot
	// see anymore, and a timeout storm is exactly the contention regime the
	// mcs/mutex modes exist for. The clamp keeps one pathological burst
	// from saturating the EMA for many periods. One kind of departure the
	// sample does still see: an abandoned ticket stays in the ticket
	// distance until owner steps over it. So the departed are added only
	// beyond the number of tickets waiting (the holder's own, in ticket
	// mode, is not one of them) — merged by max, each departure counts once.
	if ab := l.aborts.Load(); ab != l.lastAborts {
		delta := int(min(ab-l.lastAborts, 64))
		l.lastAborts = ab
		waiting := l.ticket.QueueLen()
		if cur == ModeTicket {
			waiting--
		}
		q += max(delta-max(waiting, 0), 0)
	}
	if q > int(l.periodMaxQ) {
		l.periodMaxQ = uint8(min(q, 255)) // the deflation test is "≤ 1"; the clamp loses nothing
	}
	l.queueTotal += uint64(q)
	l.queueEMA.Add(float64(q))

	l.adaptIn--
	if l.adaptIn != 0 {
		return false
	}
	l.adaptIn = l.cfg.adaptSamples

	// Footprint housekeeping, independent of the mode decision (it runs
	// for frozen locks too, mirroring sampling): after deflateIdlePeriods
	// fully-uncontended periods in ticket mode, fold the spill a spell in
	// mcs or mutex mode left behind back into the inline cell. Stragglers
	// still counted in it divert sum-exactly (stripe.Counter.Deflate).
	if cur == ModeTicket && l.periodMaxQ <= 1 {
		if l.idlePeriods < deflateIdlePeriods {
			l.idlePeriods++
		}
		if l.idlePeriods >= deflateIdlePeriods && l.present.Inflated() {
			if l.present.Deflate() {
				l.deflations++
			}
			l.idlePeriods = 0
		}
	} else {
		l.idlePeriods = 0
	}
	l.periodMaxQ = 0

	if l.cfg.disableAdaptation {
		return false
	}
	target, reason := l.decide(cur)
	if target == cur {
		return false
	}
	l.ensureLow(target)
	l.lockType.Store(uint32(target))
	l.transitions.Add(1)
	if l.stats != nil {
		l.stats.Transition(cur.String(), target.String(), reason)
	}
	if l.cfg.onTransition != nil {
		l.cfg.onTransition(cur, target, reason)
	}
	return true
}

// decide picks the mode for the next adaptation period from the queue EMA
// and the multiprogramming flag.
func (l *Lock) decide(cur Mode) (Mode, string) {
	avg := l.queueEMA.Value()
	if !l.queueEMA.Seeded() {
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
		if avg >= float64(l.cfg.mutexQueueFloor) {
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
	case avg > float64(l.cfg.upThreshold):
		if cur == ModeMCS {
			return cur, ""
		}
		return ModeMCS, fmt.Sprintf("avg queue %.2f > %.2f", avg, l.cfg.upThreshold)
	case avg < float64(l.cfg.downThreshold):
		if cur == ModeTicket {
			return cur, ""
		}
		return ModeTicket, fmt.Sprintf("avg queue %.2f < %.2f", avg, l.cfg.downThreshold)
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
// logging and tests, not for synchronisation decisions.
func (l *Lock) Stats() Stats {
	return Stats{
		Mode:        l.Mode(),
		Acquired:    l.acquired(),
		QueueEMA:    l.queueEMA.Value(),
		QueueTotal:  l.queueTotal,
		Transitions: uint64(l.transitions.Load()),
		Aborts:      uint64(l.aborts.Load()),
		Deflations:  uint64(l.deflations),
	}
}

// acquired derives the acquisition count. Ticket mode keeps no counter of
// its own: every release advances owner, so the acquisitions since the last
// fold are the distance owner has moved — less the abandoned tickets it
// stepped over and the passes handed back unused (backOut). sampleAt −
// SamplePeriod + 1 is the owner value numAcquired is folded up to; the
// distance is signed because a boundary folds its own acquisition before
// that one's release. Exact once the lock is at rest, a racy estimate while
// it is in use.
func (l *Lock) acquired() uint64 {
	unfolded := int32(l.ticket.Handoffs() - (l.sampleAt - l.cfg.samplePeriod + 1))
	n := int64(l.numAcquired) + int64(unfolded) -
		int64(l.ticketSkips.Load()) - int64(l.ticket.Abandons())
	return uint64(max(n, 0))
}
