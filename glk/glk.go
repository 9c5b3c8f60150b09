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

// inflateQueueLen is the sampled queue length (holder included) at which a
// lock inflates its presence counter from the inline cell to the striped
// spill: 2 means "someone besides the holder was at the lock".
const inflateQueueLen = 2

// deflateIdlePeriods is how many consecutive adaptation periods must
// sample nothing but the holder (every queue sample ≤ 1) before the holder
// folds an inflated presence counter back into its inline cell, returning
// the stripe.SpillBytes of heap. Inflation was one-way before this
// (ROADMAP footprint follow-up): harmless for correctness, but a table
// whose contention storm has passed kept paying the storm's footprint
// forever. Deflation only runs in ticket mode — a lock held in mcs or
// mutex mode (including the frozen InitialMode baselines) expects
// contention and keeps its stripes.
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
	// Sampling still runs (it feeds the queue statistics and the presence-
	// counter inflation trigger); only the mode decision is skipped.
	DisableAdaptation bool
	// InitialMode is the mode a fresh lock starts in (default ModeTicket).
	// The paper's Figure 6 baseline "fix[es] the non-adaptive GLK to ticket
	// mode [or] to mcs mode". A lock born in mcs or mutex mode expects
	// contention, so it is built with its low-level lock allocated and its
	// presence counter pre-inflated.
	InitialMode Mode
	// SampleLowLevelQueues selects the paper's original queue measurement:
	// ticket−owner distance in ticket mode, a queue traversal in mcs mode,
	// and the waiter count in mutex mode. The default (false) measures a
	// mode-uniform presence count instead, which is robust to preempted
	// waiters that have not enqueued yet (see DESIGN.md §4); this flag
	// exists for the ablation benchmarks and for paper-faithful runs on
	// machines with plenty of hardware contexts.
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
	// lock's own counter instead of keeping a duplicate (DESIGN.md §8).
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
		// Adaptation happens on sampling boundaries (the periods are stored
		// as countdowns); a non-multiple would silently shorten the
		// configured adaptation period.
		return fmt.Errorf("glk: AdaptPeriod %d is not a multiple of SamplePeriod %d", d.AdaptPeriod, d.SamplePeriod)
	}
	if d.SamplePeriod > math.MaxUint32 || d.AdaptPeriod/d.SamplePeriod > math.MaxUint32 {
		return fmt.Errorf("glk: periods %d/%d exceed the 32-bit countdown range", d.SamplePeriod, d.AdaptPeriod)
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
// only inline low-level lock — in ticket mode this line carries the lock's
// whole fast path), the lazy presence counter, and the lazily-allocated
// mcs/mutex locks. In mcs and mutex modes the ticket words and (after
// inflation) the presence cell go quiet, so the line is read-mostly exactly
// when other goroutines spin elsewhere.
type lockShared struct {
	lockType atomic.Uint32    // current Mode
	ticket   locks.TicketCore // low-contention mode lock, always present
	stats    *telemetry.LockStats
	present  stripe.Counter                  // inline cell + spill pointer (see below)
	mcs      atomic.Pointer[locks.MCSLock]   // published before mode becomes mcs
	mutex    atomic.Pointer[locks.MutexLock] // published before mode becomes mutex
}

// lockConfig is the stored form of a Config: the fields consulted after
// construction, compacted (periods as 32-bit countdown reload values, the
// EMA weight folded into the EMA itself, Stats hoisted to the shared
// section, thresholds narrowed to float32 — they are human-chosen numbers
// like 3.0 compared against a smoothed average, where single precision is
// indistinguishable, and the 12 bytes bought keep the holder section inside
// its two lines after the glsx abort counters). It lives on the holder
// lines because only the holder — inside tryAdapt and decide — reads it.
type lockConfig struct {
	samplePeriod         uint32 // sampleIn reload value, in critical sections
	adaptSamples         uint32 // adaptIn reload value, in samples
	upThreshold          float32
	downThreshold        float32
	mutexQueueFloor      float32
	disableAdaptation    bool
	sampleLowLevelQueues bool
	monitor              *sysmon.Monitor
	onTransition         func(from, to Mode, reason string)
}

// lockHolder is the holder-only section: statistics written every critical
// section, the countdowns driving sampling and adaptation, and the cold
// config. All of it is guarded by the lock itself — plain (non-atomic)
// updates are safe because the low-level lock orders them — except
// transitions, which outside readers poll.
type lockHolder struct {
	numAcquired uint64       // completed critical sections
	queueTotal  uint64       // sum of sampled queue lengths (paper's counter)
	queueEMA    emastats.EMA // moving average of queue samples
	// transitions and aborts are the two atomics on the holder lines:
	// transitions because outside readers poll it, aborts because its
	// writers are departing waiters, not the holder. Both are rare events
	// (32 bits suffice), and an aborter's write to the holder line is the
	// price of not spending a fourth line on it.
	transitions  atomic.Uint32 // mode changes, for observability
	aborts       atomic.Uint32 // abandoned acquisitions, cumulative (see abortDepart)
	presentToken uint64        // holder's stripe token, repaid in Unlock
	sampleIn     uint32        // critical sections until the next queue sample
	adaptIn      uint32        // samples until the next adaptation decision
	acquiredMode Mode          // which low-level lock the current holder took
	// The deflation bookkeeping is deliberately byte-sized: it shares the
	// alignment hole before cfg, keeping the holder section inside two
	// lines (TestLockFootprint).
	idlePeriods uint8  // consecutive adaptation periods with max queue ≤ 1
	periodMaxQ  uint8  // max sampled queue this period, clamped at 255
	deflations  uint16 // presence-counter deflations, for observability
	lastAborts  uint32 // aborts value at the last sample, for the delta signal
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
// layout costs (DESIGN.md §8). The presence counter starts as an inline
// cell on the shared line; once contention is observed — the holder's
// sampling reads a queue (inflateQueueLen), or a TryLock finds the lock
// held — it inflates to one line per stripe, so under sustained contention
// arrival/release writes leave the shared line exactly as in the eager
// layout, preserving MCS's local-spinning guarantee. The pre-inflation
// window (at most one sample period of contended use, or a single failed
// try) is the only time an arrival's write can invalidate a line another
// goroutine reads.
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
	l.adaptIn = l.cfg.adaptSamples
	l.queueEMA = emastats.NewEMA(c.EMAWeight)
	initial := c.InitialMode
	if initial == 0 {
		initial = ModeTicket
	}
	l.ensureLow(initial)
	if initial != ModeTicket {
		// A lock frozen or started in a contended mode expects contention:
		// pre-inflate so arrival traffic never writes the shared line.
		l.present.Inflate()
	}
	l.lockType.Store(uint32(initial))
	if c.Stats != nil {
		l.stats = c.Stats
		l.stats.SetPresenceSampler(l.present.Sum)
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

// PresenceInflated reports whether the lock has spilled its presence
// counter to the striped form — i.e. whether it ever observed contention.
// Introspection for footprint accounting (glsbench -cardinality) and tests.
func (l *Lock) PresenceInflated() bool { return l.present.Inflated() }

// Lock acquires l, adapting the mode if the statistics call for it
// (paper Figure 4).
func (l *Lock) Lock() {
	tok := stripe.Self()
	l.present.Add(tok, 1)
	if l.stats != nil {
		l.lockInstrumented(tok)
		return
	}
	for {
		cur := Mode(l.lockType.Load())
		l.lockLow(cur)
		// Re-check the mode: another holder may have adapted while we
		// waited on the (now stale) low-level lock.
		if Mode(l.lockType.Load()) == cur && !l.tryAdapt(cur) {
			l.acquiredMode = cur
			l.presentToken = tok
			return
		}
		l.unlockLow(cur)
	}
}

// lockInstrumented is Lock's telemetry twin: same adaptation loop, plus a
// try-first probe of the low-level lock so a blocked arrival is counted as
// a contended acquisition, and the Arrive/Acquired hook pair around it.
func (l *Lock) lockInstrumented(tok uint64) {
	a := l.stats.Arrive(tok)
	contended := false
	for {
		cur := Mode(l.lockType.Load())
		if !l.tryLockLow(cur) {
			contended = true
			l.lockLow(cur)
		}
		if Mode(l.lockType.Load()) == cur && !l.tryAdapt(cur) {
			l.acquiredMode = cur
			l.presentToken = tok
			a.Acquired(contended)
			return
		}
		l.unlockLow(cur)
	}
}

// TryLock attempts to acquire l without waiting.
func (l *Lock) TryLock() bool {
	tok := stripe.Self()
	l.present.Add(tok, 1)
	if l.stats != nil {
		return l.tryLockInstrumented(tok)
	}
	for {
		cur := Mode(l.lockType.Load())
		if !l.tryLockLow(cur) {
			// A failed try observed the lock held — contention by
			// definition, and the one contended pattern holder-side
			// sampling can miss (pollers are present only transiently, so
			// a TryLock-dominated workload might never sample q >= 2).
			// Inflate here so repeated polling writes stripes, not the
			// shared line.
			l.present.Inflate()
			l.present.Add(tok, -1)
			return false
		}
		if Mode(l.lockType.Load()) == cur && !l.tryAdapt(cur) {
			l.acquiredMode = cur
			l.presentToken = tok
			return true
		}
		l.unlockLow(cur)
	}
}

// tryLockInstrumented is TryLock's telemetry twin.
func (l *Lock) tryLockInstrumented(tok uint64) bool {
	a := l.stats.Arrive(tok)
	for {
		cur := Mode(l.lockType.Load())
		if !l.tryLockLow(cur) {
			l.present.Inflate() // observed held: see TryLock
			l.present.Add(tok, -1)
			a.Failed()
			return false
		}
		if Mode(l.lockType.Load()) == cur && !l.tryAdapt(cur) {
			l.acquiredMode = cur
			l.presentToken = tok
			a.Acquired(false)
			return true
		}
		l.unlockLow(cur)
	}
}

// Unlock releases l. It must be called by the goroutine that acquired it.
func (l *Lock) Unlock() {
	m := l.acquiredMode
	l.acquiredMode = 0
	if l.stats != nil {
		// Record the hold sample while still holding: the hold timer is
		// holder-only state.
		l.stats.Release(l.presentToken)
	}
	// Repay the stripe taken in Lock/TryLock while still holding the lock:
	// presentToken is holder-only state.
	l.present.Add(l.presentToken, -1)
	l.unlockLow(m)
}

// ensureLow makes sure mode m's low-level lock exists before the mode word
// can point at it. The ticket lock is inline; mcs and mutex are allocated
// on the first transition to (or construction in) their mode — rare,
// holder-only events, so a plain atomic publish suffices: arrivals only
// dereference the pointer after loading a mode word that was stored after
// the pointer.
func (l *Lock) ensureLow(m Mode) {
	switch m {
	case ModeMCS:
		if l.mcs.Load() == nil {
			l.mcs.Store(locks.NewMCS())
		}
	case ModeMutex:
		if l.mutex.Load() == nil {
			l.mutex.Store(locks.NewMutex())
		}
	}
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
		panic(fmt.Sprintf("glk: Unlock of unlocked or corrupt lock (mode %v)", m))
	}
}

// queueLen samples the number of goroutines at the lock, holder included.
// The sample is mode-independent by design; see the present field. It sums
// the inline cell and any stripes, and is only called by the holder, once
// per SamplePeriod.
func (l *Lock) queueLen() int {
	return int(l.present.Sum())
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

// tryAdapt runs the statistics/adaptation step. The caller holds the
// low-level lock for mode cur. It returns true when the mode changed, in
// which case the caller must release the low-level lock and restart (paper
// Figure 4, line 15).
//
// All statistics fields are holder-only, so plain (non-atomic) updates are
// safe: the low-level lock orders them. The periods are countdowns rather
// than the paper's modulo tests so the per-section cost is a decrement and
// a predicted branch, cheap enough to keep running when adaptation is
// disabled — frozen locks still sample, because sampling is also what
// triggers presence-counter inflation.
//
//go:noinline
func (l *Lock) tryAdapt(cur Mode) bool {
	l.numAcquired++
	l.sampleIn--
	if l.sampleIn != 0 {
		return false
	}
	return l.sampleAndAdapt(cur)
}

// sampleAndAdapt is the sampling-boundary slow path of tryAdapt: record a
// queue sample, run the footprint housekeeping, and — on adaptation
// boundaries — re-decide the mode. Splitting it out keeps tryAdapt's body
// — the per-acquisition countdown — at its pre-glsrw size (the larger
// boundary path grew this PR and was dragging acquisition-path I-cache
// behaviour with it).
func (l *Lock) sampleAndAdapt(cur Mode) bool {
	l.sampleIn = l.cfg.samplePeriod

	var q int
	if l.cfg.sampleLowLevelQueues {
		q = l.queueLenLow(cur)
	} else {
		q = l.queueLen()
	}
	if q < 0 {
		q = 0
	}
	// Fold aborts since the last sample into the queue signal: a waiter
	// that gave up was queued goroutines the instantaneous sample cannot
	// see anymore, and a timeout storm is exactly the contention regime the
	// mcs/mutex modes exist for. The clamp keeps one pathological burst
	// from saturating the EMA for many periods.
	if ab := l.aborts.Load(); ab != l.lastAborts {
		delta := ab - l.lastAborts
		l.lastAborts = ab
		if delta > 64 {
			delta = 64
		}
		q += int(delta)
	}
	if q >= inflateQueueLen {
		// First observed contention: spill the presence counter off the
		// shared line before the contenders keep hammering it. Inflate is
		// idempotent and almost always already done.
		l.present.Inflate()
	}
	if q > int(l.periodMaxQ) {
		qc := q
		if qc > 255 {
			qc = 255 // the deflation test is "≤ 1"; the clamp loses nothing
		}
		l.periodMaxQ = uint8(qc)
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
	// fully-uncontended periods in ticket mode, fold the spill back into
	// the inline cell. The holder performs the fold while holding, so it
	// cannot race its own queue sampling; arriving goroutines divert
	// sum-exactly (stripe.Counter.Deflate).
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

	switch {
	case avg > float64(l.cfg.upThreshold):
		return ModeMCS, fmt.Sprintf("avg queue %.2f > %.2f", avg, l.cfg.upThreshold)
	case avg < float64(l.cfg.downThreshold):
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
	Acquired    uint64  // completed critical sections (approximate while held)
	QueueEMA    float64 // smoothed queue length
	QueueTotal  uint64  // paper's queue_total counter
	Transitions uint64
	Aborts      uint64 // acquisitions abandoned mid-wait (timeouts + cancels)
	Deflations  uint64 // presence-counter spills folded back after idling
}

// Stats returns a racy snapshot of the lock's counters. Intended for
// logging and tests, not for synchronisation decisions.
func (l *Lock) Stats() Stats {
	return Stats{
		Mode:        l.Mode(),
		Acquired:    l.numAcquired,
		QueueEMA:    l.queueEMA.Value(),
		QueueTotal:  l.queueTotal,
		Transitions: uint64(l.transitions.Load()),
		Aborts:      uint64(l.aborts.Load()),
		Deflations:  uint64(l.deflations),
	}
}
