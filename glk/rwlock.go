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

// RWMode identifies the operating mode of an adaptive RW lock — the
// reader-writer analogue of Mode. Since glsfair the modes span two axes:
// the native pair (inline/striped) shares one admission protocol and
// differs only in how readers are counted, while the phase-fair and
// write-preferring modes delegate to a different admission protocol
// entirely — the RW analogue of GLK's ticket→mcs→mutex family walk.
type RWMode uint32

// The four reader-writer modes.
const (
	// RWModeInline counts readers in a single inline cell: compact (the
	// whole idle lock is two cache lines) and fine while readers are
	// solitary, but concurrent readers bounce the cell's line.
	RWModeInline RWMode = iota + 1
	// RWModeStriped counts readers in per-stripe cells (stripe.Counter's
	// inflated form): read acquisitions scale, writers sweep one extra line
	// per stripe, and the lock carries stripe.SpillBytes of heap until the
	// readers go quiet and a writer deflates it back.
	RWModeStriped
	// RWModePhaseFair delegates to a locks.RWPhaseFair: reader and writer
	// phases alternate, so a continuous writer stream cannot starve
	// readers (nor the reverse). Selected when the lock observes reader
	// starvation or a sustained writer stream with readers present; read
	// throughput costs a shared-line ticket, so the lock returns to
	// striped once the stream subsides.
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
	case RWModeInline:
		return "rwinline"
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

// rwFamily is the admission protocol behind a mode: the two native modes
// share the flag+ticket+counter protocol (and can flip between each other
// while readers run — only the counter's shape changes), while each
// delegate family is a distinct lock object. Cross-family transitions only
// happen while a writer holds the lock exclusively.
type rwFamily uint8

const (
	rwFamNative rwFamily = iota // inline/striped: writer flag + ticket + reader counter
	rwFamPhaseFair
	rwFamWritePref
)

// family maps a mode to its admission protocol.
func (m RWMode) family() rwFamily {
	switch m {
	case RWModePhaseFair:
		return rwFamPhaseFair
	case RWModeWritePref:
		return rwFamWritePref
	default:
		return rwFamNative
	}
}

// Adaptation defaults for the RW lock. The write side samples far less
// often than the exclusive lock (writes on a read-mostly lock are rare
// events already).
const (
	// DefaultRWSamplePeriod is how often (in completed write sections) the
	// writer re-examines the mode decision.
	DefaultRWSamplePeriod = 64
	// DefaultRWDeflatePeriods is how many consecutive reader-free sampled
	// write periods deflate the striped readers back to the inline cell.
	DefaultRWDeflatePeriods = 4
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
	// writer-stream periods (half the period's writers queued behind
	// another, with readers present) escalate, and this many calm ones
	// (writer queue < 2 at the boundary) de-escalate.
	DefaultRWFairPeriods = 2
)

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

// RWConfig tunes an adaptive RW lock. The zero value selects every default.
type RWConfig struct {
	// SamplePeriod is the write-side sampling period, in completed write
	// sections: every SamplePeriod-th write acquisition folds its
	// observations into the mode decision.
	SamplePeriod uint64
	// DeflatePeriods is how many consecutive sampled periods must observe
	// zero readers before a writer folds the stripes back inline.
	DeflatePeriods uint32
	// StarveBackouts is how many writer phases may bypass one blocked
	// reader before it raises the starvation signal (0 selects
	// DefaultRWStarveBackouts). The next writer release then switches the
	// lock to phase-fair admission.
	StarveBackouts uint32
	// FairPeriods is the striped↔phase-fair hysteresis dwell in sampled
	// write periods (0 selects DefaultRWFairPeriods).
	FairPeriods uint32
	// DisableAdaptation freezes the lock in its initial mode: no
	// inflation, no deflation, no family changes. A frozen-inline lock is
	// the compact baseline the rw benchmarks compare against.
	DisableAdaptation bool
	// InitialRWMode is the mode a fresh lock starts in (default
	// RWModeInline). A lock born striped expects reader concurrency and
	// allocates its spill up front; one born phase-fair or write-preferring
	// allocates its delegate lock up front.
	InitialRWMode RWMode
	// Monitor supplies the multiprogramming flag for the blocking-mode
	// decision — the same probe Config.Monitor feeds the exclusive lock.
	// nil selects the shared process-wide monitor.
	Monitor *sysmon.Monitor
	// OnTransition, if non-nil, is invoked after every mode change with
	// the old mode, new mode, and the triggering reason — the RW analogue
	// of Config.OnTransition (§4.3 transition tracing).
	OnTransition func(from, to RWMode, reason string)
	// Stats, if non-nil, receives this lock's telemetry: writer
	// acquisitions through the exclusive lanes, reader acquisitions through
	// the rw lanes, writer drain time, reader wait phases and starvation
	// events, and every mode transition. EnableRW and the read-side
	// samplers are wired at construction.
	Stats *telemetry.LockStats
}

// withDefaults returns a copy of c with zero fields replaced by defaults.
func (c RWConfig) withDefaults() RWConfig {
	if c.SamplePeriod == 0 {
		c.SamplePeriod = DefaultRWSamplePeriod
	}
	if c.DeflatePeriods == 0 {
		c.DeflatePeriods = DefaultRWDeflatePeriods
	}
	if c.StarveBackouts == 0 {
		c.StarveBackouts = DefaultRWStarveBackouts
	}
	if c.FairPeriods == 0 {
		c.FairPeriods = DefaultRWFairPeriods
	}
	if c.InitialRWMode == 0 {
		c.InitialRWMode = RWModeInline
	}
	return c
}

// Validate reports configuration errors after defaulting.
func (c RWConfig) Validate() error {
	d := c.withDefaults()
	if d.SamplePeriod > math.MaxUint32 {
		return fmt.Errorf("glk: RW SamplePeriod %d exceeds the 32-bit countdown range", d.SamplePeriod)
	}
	if d.DeflatePeriods > math.MaxUint8 || d.FairPeriods > math.MaxUint8 {
		return fmt.Errorf("glk: RW dwell periods %d/%d exceed the 8-bit counter range (the holder line is a budget)",
			d.DeflatePeriods, d.FairPeriods)
	}
	switch d.InitialRWMode {
	case RWModeInline, RWModeStriped, RWModePhaseFair, RWModeWritePref:
	default:
		return fmt.Errorf("glk: invalid InitialRWMode %v", d.InitialRWMode)
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

// delegate returns family f's delegate lock. f must be a delegate family
// read from the mode word — the subs entry is published before the mode
// word that names it, so the load cannot return nil.
func (l *RWLock) delegate(f rwFamily) rwDelegate {
	s := l.subs.Load()
	if f == rwFamPhaseFair {
		return s.pf
	}
	return s.wp
}

// rwShared is the section of an RWLock every arrival touches: the mode
// word, the native protocol's writer flag/ticket/reader counter, the stats
// and delegate pointers, and the starvation signal. In the striped steady
// state the only per-operation write on this line is a writer's — readers
// write their stripes and merely read the flag; in the delegate modes the
// whole line goes read-only and the traffic moves to the delegate. (rseen
// is the one word a striped reader may write: once per write-side sampling
// period, by whichever reader finds it clear.)
type rwShared struct {
	readers stripe.Counter         // lazily-striped count of native-mode readers
	rwmode  atomic.Uint32          // current RWMode
	writer  atomic.Uint32          // native: 1 while a writer holds or is draining
	wmu     locks.TicketCore       // native: writer↔writer exclusion, FIFO
	stats   *telemetry.LockStats   // telemetry hooks, or nil
	subs    atomic.Pointer[rwSubs] // delegate locks; nil until first needed
	starve  atomic.Uint32          // set by a bypassed reader, consumed at Unlock
	rseen   atomic.Uint32          // set by a native reader that finds it 0, cleared at the sampling boundary
}

// rwConfig is the stored form of an RWConfig (the fields consulted after
// construction; Stats is hoisted to the shared section). The dwell periods
// are bytes on purpose — Validate bounds them — so the whole holder section
// keeps to one line.
type rwConfig struct {
	samplePeriod      uint32
	starveBackouts    uint32
	deflatePeriods    uint8
	fairPeriods       uint8
	disableAdaptation bool
	onTransition      func(from, to RWMode, reason string)
	monitor           *sysmon.Monitor
}

// rwHolder is the writer-only section, guarded by whichever family's write
// lock the holder acquired — plain updates throughout, but for transitions:
// nearly every mode change is the holder's, the one exception (a reader's
// inline→striped inflation) happens once per inflated life, and the
// outside pollers that read the count read writes beside it.
type rwHolder struct {
	writes   uint64 // completed write sections
	wtok     uint64 // writer's stripe token, repaid in Unlock
	sampleIn uint32 // write sections until the next mode check
	wfam     uint8  // rwFamily the current write was acquired under
	// Dwell counters for the three adaptation decisions (byte-sized: they
	// share the holder line with the config).
	idlePeriods   uint8         // consecutive sampled periods in which no reader came (deflation)
	streakPeriods uint8         // consecutive writer-stream periods (→ phase-fair)
	calmPeriods   uint8         // consecutive calm periods in phase-fair mode (→ striped)
	sawReaders    bool          // any drain in the current period met readers
	queued        uint16        // native writes this period that waited behind another writer (saturating)
	transitions   atomic.Uint32 // mode changes (32-bit: rare, dwell-gated)
	cfg           rwConfig
}

// RWLock is the adaptive reader-writer lock of the glsrw/glsfair
// subsystems: GLK's per-lock adaptation applied to the read side. It walks
// a family of admission protocols the way the exclusive lock walks
// ticket→mcs→mutex, paying for each property exactly while the workload
// demonstrates the need:
//
//   - rwinline — a single inline reader cell; the whole idle lock is two
//     cache lines. The default birth mode.
//   - rwstriped — BRAVO-style striped readers (locks.RWStriped's
//     protocol), entered when a reader observes a second simultaneous
//     reader or a writer's drain meets readers; deflated back after
//     DeflatePeriods sampled write periods in which no reader came.
//   - rwphasefair — delegate to locks.RWPhaseFair, entered when a blocked
//     reader reports being bypassed past StarveBackouts writer phases, or
//     when FairPeriods consecutive sampled periods show a writer stream
//     (half their writers queued behind another) with readers present.
//     Neither side can starve; read throughput pays a shared-line ticket,
//     so calm periods return the lock to rwstriped.
//   - rwwritepref — delegate to the blocking locks.RWWritePref under
//     multiprogramming, detected via the same sysmon probe the exclusive
//     lock uses for its mutex transition; cleared when the flag drops.
//
// Every transition is telemetry-visible with its reason (§4.3 style).
//
// Cross-family transitions are performed by a releasing writer, which holds
// the lock exclusively — no read shares are outstanding — and are published
// through the mode word before the old family's write lock is released.
// Arrivals re-check the family after acquiring under it and re-dispatch if
// it moved, exactly the re-check loop glk.Lock runs on its mode word; a
// share taken during the hand-over window is released before the caller
// ever enters its critical section, so mutual exclusion only ever depends
// on one family at a time.
//
// Layout follows glk.Lock's sectioning discipline: one shared arrival line,
// one writer-only line; layout_test.go pins both and the ≤4-line ISSUE
// budget. The delegate locks live behind one lazily-allocated pointer, so
// the fairness and blocking modes cost the idle lock nothing.
type RWLock struct {
	rwShared
	_ [(pad.CacheLineSize - unsafe.Sizeof(rwShared{})%pad.CacheLineSize) % pad.CacheLineSize]byte
	rwHolder
	// No trailing pad: rwHolder fills its line exactly (a zero-length
	// trailing array would itself add padding); TestRWLockFootprint pins
	// the whole-lines invariant.
}

var _ locks.RWLock = (*RWLock)(nil)

// NewRW returns an adaptive reader-writer lock. cfg == nil selects all
// defaults. Invalid configurations panic, like New.
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
		samplePeriod:      uint32(c.SamplePeriod),
		starveBackouts:    c.StarveBackouts,
		deflatePeriods:    uint8(c.DeflatePeriods),
		fairPeriods:       uint8(c.FairPeriods),
		disableAdaptation: c.DisableAdaptation,
		onTransition:      c.OnTransition,
		monitor:           c.Monitor,
	}
	l.sampleIn = l.cfg.samplePeriod
	switch c.InitialRWMode {
	case RWModeStriped:
		// Born striped: expects reader concurrency, allocates the spill up
		// front so no arrival pays the detection window.
		l.readers.Inflate()
	case RWModePhaseFair, RWModeWritePref:
		l.ensureSub(c.InitialRWMode.family())
	}
	l.rwmode.Store(uint32(c.InitialRWMode))
	if c.Stats != nil {
		l.stats = c.Stats
		l.stats.EnableRW()
		l.stats.SetReaderSampler(l.readersNow)
		// The write-side presence is the active family's writer queue: the
		// ticket exposes it for free, exactly the paper's ticket measure.
		l.stats.SetPresenceSampler(func() int64 { return int64(l.writerQueueLen()) })
		l.stats.SetMode(c.InitialRWMode.String())
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

// ensureSub makes sure family f's delegate lock exists before the mode word
// can name it. Delegates are allocated on the first transition to (or
// construction in) their family — rare events performed while holding the
// lock — by publishing a fresh, immutable rwSubs.
func (l *RWLock) ensureSub(f rwFamily) {
	cur := l.subs.Load()
	var ns rwSubs
	if cur != nil {
		ns = *cur
	}
	switch f {
	case rwFamPhaseFair:
		if ns.pf != nil {
			return
		}
		ns.pf = locks.NewRWPhaseFair()
	case rwFamWritePref:
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
	if f := RWMode(l.rwmode.Load()).family(); f != rwFamNative {
		return int64(l.delegate(f).Readers())
	}
	return l.readers.Sum()
}

// writerQueueLen counts the writers at the lock (holder included) under the
// active family (racy snapshot).
func (l *RWLock) writerQueueLen() int {
	if f := RWMode(l.rwmode.Load()).family(); f != rwFamNative {
		return l.delegate(f).QueueLen()
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
	if f := RWMode(l.rwmode.Load()).family(); f != rwFamNative {
		return l.delegate(f).WriteLocked()
	}
	return l.writer.Load() != 0
}

// noteTransition publishes a mode change's bookkeeping (counter, telemetry
// edge, trace callback).
func (l *RWLock) noteTransition(from, to RWMode, reason string) {
	l.transitions.Add(1)
	if l.stats != nil {
		l.stats.Transition(from.String(), to.String(), reason)
	}
	if l.cfg.onTransition != nil {
		l.cfg.onTransition(from, to, reason)
	}
}

// setRWMode publishes a mode change with its bookkeeping. The CAS makes
// racing triggers (two readers observing each other at once, or a reader
// inflation racing a writer's family decision) report one transition.
func (l *RWLock) setRWMode(from, to RWMode, reason string) bool {
	if !l.rwmode.CompareAndSwap(uint32(from), uint32(to)) {
		return false
	}
	l.noteTransition(from, to, reason)
	return true
}

// nativeMode is the mode a delegate family de-escalates to: the native
// protocol in whichever shape its reader counter is actually in. Reporting
// rwstriped while the counter sits deflated would mislabel the lock
// indefinitely (the deflation housekeeping skips deflated counters) and
// make a later genuine inflation's CAS fail silently, eating its
// telemetry edge.
func (l *RWLock) nativeMode() RWMode {
	if l.readers.Inflated() {
		return RWModeStriped
	}
	return RWModeInline
}

// transitionTo moves the lock from its current mode to a new one. Called
// only by a writer holding the lock exclusively; the CAS still guards
// against a concurrent reader-side inline→striped inflation.
func (l *RWLock) transitionTo(to RWMode, reason string) bool {
	from := RWMode(l.rwmode.Load())
	if from == to {
		return false
	}
	l.ensureSub(to.family())
	return l.setRWMode(from, to, reason)
}

// inflateReaders switches the native counter to striped readers
// (idempotent).
func (l *RWLock) inflateReaders(reason string) {
	l.readers.Inflate()
	l.setRWMode(RWModeInline, RWModeStriped, reason)
}

// rwInflateReaders mirrors locks.rwInflateReaders: a deflated count update
// returning 2 proves a second simultaneous reader.
const rwInflateReaders = 2

// noteReader marks the current write-side sampling period as one a reader
// came in: deflation asks whether readers still use the lock, not whether a
// drain happened to overlap one. The store happens once per period, by
// whichever reader finds the word clear; everyone else's load is of the line
// the flag check just read.
func (l *RWLock) noteReader() {
	if l.rseen.Load() == 0 {
		l.rseen.Store(1)
	}
}

// sawSecondReader acts on a post-increment reader count ≥ rwInflateReaders.
// Only a deflated count means anything (stripe.Counter.AddGet): once
// inflated it is one stripe's running total, which a +1 inline / −1 striped
// pair leaves skewed for good — and the lock is striped already.
func (l *RWLock) sawSecondReader() {
	if !l.readers.Inflated() && !l.cfg.disableAdaptation {
		l.inflateReaders("reader concurrency")
	}
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

// rlockNative attempts a native (inline/striped) read acquisition: the
// locks.RWStriped protocol plus the adaptation triggers. It reports whether
// the share was taken — false means the lock left the native family while
// we waited and the caller must re-dispatch — how many writer phases
// bypassed us while we waited, and whether we raised the starvation signal.
// A bypass is a look at the writer ticket's handoff counter that finds it
// moved: a reader the scheduler kept off the processor across eight
// hand-offs saw one, not eight — it was descheduled, not starved, and
// phase-fair admission would not have run it sooner. The rounds backstop
// covers a single writer that holds without handing off.
func (l *RWLock) rlockNative(tok uint64) (ok bool, bypassed uint64, starved bool) {
	var s backoff.Spinner
	var seen uint32 // the handoff counter at our last look
	waiting := false
	rounds := uint32(0)
	for {
		n := l.readers.AddGet(tok, 1)
		if l.writer.Load() == 0 {
			if RWMode(l.rwmode.Load()).family() != rwFamNative {
				// The family moved while we arrived: this share counts
				// toward a protocol no writer is watching any more. Return
				// it before anyone could mistake it for an admission.
				l.readers.Add(tok, -1)
				return false, bypassed, starved
			}
			if waiting {
				bypassed += l.handedOff(&seen)
				if !starved && !l.cfg.disableAdaptation && bypassed >= uint64(l.cfg.starveBackouts) {
					// We got in, but only after the stream bypassed us past
					// the bound: raise the signal anyway, so the next
					// release moves the lock before the next reader waits
					// as long.
					starved = true
					l.starve.Store(1)
				}
			}
			l.noteReader()
			if n >= rwInflateReaders {
				l.sawSecondReader()
			}
			return true, bypassed, starved
		}
		// A writer holds or is draining: back our count out so the drain
		// can finish, then wait for the flag to drop.
		l.readers.Add(tok, -1)
		if !waiting {
			waiting = true
			seen = l.wmu.Handoffs()
			l.noteReader()
		}
		bypassed += l.handedOff(&seen)
		rounds++
		bound := uint64(l.cfg.starveBackouts) // on the writers' line: read only once we wait
		// The backstop product is computed in uint64: a deliberately huge
		// StarveBackouts ("never escalate") must not wrap into an
		// always-true threshold.
		if !l.cfg.disableAdaptation && !starved &&
			(bypassed >= bound || uint64(rounds) >= rwStarveRoundsFactor*bound) {
			// Bypassed past the bound: ask for phase-fair admission. The
			// store lands on the shared line the writer stream already
			// owns, and the next Unlock acts on it.
			starved = true
			l.starve.Store(1)
		}
		// Once the signal is raised (or adaptation is off) there is nothing
		// left to count: wait for the flag like locks.RWStriped, with no
		// per-round counter re-attempts churning the drain the writer is
		// trying to finish. A family transition still releases us — the
		// transitioning writer drops the flag when it releases the native
		// write lock.
		if starved || l.cfg.disableAdaptation {
			for l.writer.Load() != 0 {
				s.Spin()
			}
			continue
		}
		// Bounded waiting round (see rwBackoutSpins), looking at the
		// handoff counter as it waits: a reader bypassed again and again
		// must raise the signal mid-wait, not after it is eventually
		// admitted. Both words live on the shared line the spin is already
		// polling.
		for i := 0; l.writer.Load() != 0 && i < rwBackoutSpins; i++ {
			if bypassed += l.handedOff(&seen); bypassed >= bound {
				starved = true
				l.starve.Store(1)
				break
			}
			s.Spin()
		}
	}
}

// RLock acquires a read share under the active family, re-dispatching if
// the family changes while we wait.
func (l *RWLock) RLock() {
	tok := stripe.Self()
	if l.stats != nil {
		l.rlockInstrumented(tok)
		return
	}
	for {
		f := RWMode(l.rwmode.Load()).family()
		if f == rwFamNative {
			if ok, _, _ := l.rlockNative(tok); ok {
				return
			}
			continue
		}
		d := l.delegate(f)
		d.RLock()
		if RWMode(l.rwmode.Load()).family() == f {
			return
		}
		d.RUnlock()
	}
}

// rlockInstrumented is RLock's telemetry twin: the same dispatch loop plus
// the RArrive/RAcquired pair, the bypassed-phase count, and the starvation
// event.
func (l *RWLock) rlockInstrumented(tok uint64) {
	a := l.stats.RArrive(tok)
	contended := false
	var phases uint64
	starved := false
	for {
		f := RWMode(l.rwmode.Load()).family()
		if f == rwFamNative {
			ok, b, st := l.rlockNative(tok)
			phases += b
			contended = contended || b > 0 || st
			starved = starved || st
			if ok {
				l.recordReaderWait(tok, phases, starved)
				a.RAcquired(contended)
				return
			}
			continue
		}
		d := l.delegate(f)
		if !d.TryRLock() {
			contended = contended || d.WriteLocked()
			d.RLock()
		}
		if RWMode(l.rwmode.Load()).family() == f {
			l.recordReaderWait(tok, phases, starved)
			a.RAcquired(contended)
			return
		}
		d.RUnlock()
	}
}

// recordReaderWait feeds the starvation/phase telemetry: the writer phases
// that bypassed this reader, and the starvation event if it raised the
// signal.
func (l *RWLock) recordReaderWait(tok uint64, phases uint64, starved bool) {
	if phases > 0 {
		l.stats.RWaitedPhases(tok, phases)
	}
	if starved {
		l.stats.RStarvedEvent(tok)
	}
}

// tryRLockNative attempts a native read share without waiting. decided is
// false when the family moved underneath us and the caller must
// re-dispatch.
func (l *RWLock) tryRLockNative(tok uint64) (ok, decided bool) {
	if l.writer.Load() != 0 {
		return false, true
	}
	n := l.readers.AddGet(tok, 1)
	if l.writer.Load() == 0 {
		if RWMode(l.rwmode.Load()).family() != rwFamNative {
			l.readers.Add(tok, -1)
			return false, false
		}
		l.noteReader()
		if n >= rwInflateReaders {
			l.sawSecondReader()
		}
		return true, true
	}
	l.readers.Add(tok, -1)
	return false, true
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

// tryRLockLow is TryRLock without instrumentation: the family-dispatch loop
// over the native try and the delegates. It only re-loops on a family move
// observed mid-try, so it never waits. RLockCancel's polling also drives
// it, which is why it is factored out of TryRLock rather than inlined.
func (l *RWLock) tryRLockLow(tok uint64) bool {
	for {
		f := RWMode(l.rwmode.Load()).family()
		if f == rwFamNative {
			if ok, decided := l.tryRLockNative(tok); decided {
				return ok
			}
			continue
		}
		d := l.delegate(f)
		if !d.TryRLock() {
			return false
		}
		if RWMode(l.rwmode.Load()).family() == f {
			return true
		}
		d.RUnlock()
	}
}

// RUnlock releases a read share. No mode transition can occur while any
// read share is outstanding — every transition is performed by a writer
// holding the lock exclusively — so the share was necessarily taken under
// the current family.
func (l *RWLock) RUnlock() {
	tok := stripe.Self()
	if l.stats != nil {
		l.stats.RRelease(tok)
	}
	if f := RWMode(l.rwmode.Load()).family(); f != rwFamNative {
		l.delegate(f).RUnlock()
		return
	}
	l.readers.Add(tok, -1)
}

// Lock acquires the write lock under the active family, re-dispatching if
// the family changes while we wait. Native acquisitions run the
// FIFO-ticket → flag → drain protocol; the drain's reader observations feed
// adaptation and its duration, on sampled acquisitions, feeds telemetry.
//
// The native arm re-checks the family after taking the ticket but *before*
// raising the flag and draining: a writer that waited across a transition
// holds a lock the mode word no longer names, and letting it drain would
// mutate holder-only state (sawReaders, the inflation trigger) in a race
// with the genuine delegate-family holder. Once the check passes, no
// further transition is possible — we hold the native write lock, and
// transitions are made only by the holder — so the drain runs as the
// genuine holder and no post-drain check is needed.
func (l *RWLock) Lock() {
	tok := stripe.Self()
	var a telemetry.Acq
	if l.stats != nil {
		a = l.stats.Arrive(tok)
	}
	contended := false
	for {
		f := RWMode(l.rwmode.Load()).family()
		if f == rwFamNative {
			c := !l.wmu.TryLock()
			if c {
				l.wmu.Lock()
			}
			contended = contended || c
			if RWMode(l.rwmode.Load()).family() != rwFamNative {
				l.wmu.Unlock() // stale era: leave before touching anything
				continue
			}
			l.writer.Store(1)
			met := l.drain(tok, a.Timed())
			contended = contended || met
			l.wfam = uint8(rwFamNative)
			if c && l.queued < math.MaxUint16 {
				l.queued++
			}
			break
		}
		d := l.delegate(f)
		c := !d.TryLock()
		if c {
			d.Lock()
		}
		contended = contended || c
		if RWMode(l.rwmode.Load()).family() == f {
			l.wfam = uint8(f)
			break
		}
		d.Unlock()
	}
	l.wtok = tok
	if l.stats != nil {
		a.Acquired(contended)
	}
}

// drain waits out present native-mode readers, recording what it saw for
// adaptation and (on timed acquisitions) how long it stalled. Runs with the
// flag up and the ticket held; sawReaders accumulates until the next
// sampling boundary.
func (l *RWLock) drain(tok uint64, timed bool) (met bool) {
	var s backoff.Spinner
	var t0 time.Time
	timed = timed && l.stats != nil
	for l.readers.Sum() != 0 {
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
		if !l.cfg.disableAdaptation {
			l.inflateReaders("readers overlap writers")
		}
	}
	return met
}

// TryLock attempts to acquire the write lock without waiting. Like Lock,
// the native arm re-checks the family right after taking the ticket, so
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
// arrival lanes. It only re-loops on a family move observed mid-try.
func (l *RWLock) tryLockLow(tok uint64) bool {
	for {
		f := RWMode(l.rwmode.Load()).family()
		if f == rwFamNative {
			if !l.wmu.TryLock() {
				return false
			}
			if RWMode(l.rwmode.Load()).family() != rwFamNative {
				l.wmu.Unlock() // stale era: leave before touching anything
				continue
			}
			l.writer.Store(1)
			if l.readers.Sum() != 0 {
				l.writer.Store(0)
				l.wmu.Unlock()
				if !l.cfg.disableAdaptation {
					l.inflateReaders("readers overlap writers")
				}
				return false
			}
			l.wfam = uint8(rwFamNative)
			l.wtok = tok
			return true
		}
		d := l.delegate(f)
		if !d.TryLock() {
			return false
		}
		if RWMode(l.rwmode.Load()).family() == f {
			l.wfam = uint8(f)
			l.wtok = tok
			return true
		}
		d.Unlock()
	}
}

// Unlock releases the write lock, running the sampled adaptation step
// first: the releasing writer is the only goroutine that may touch the
// holder section, and a family change must be published before the old
// family's write lock hands over.
//
// Exclusivity effectively transfers at a cross-family transition's mode
// store, not at the physical release below — the new family's lock was
// never held, so its first writer can acquire the instant the mode names
// it. Everything that touches holder-only state therefore happens before
// tryAdaptRW (which in turn makes any transition its own final holder
// action): the hold-timer sample and the wfam/wtok reads are hoisted
// here, above the call.
func (l *RWLock) Unlock() {
	fam := rwFamily(l.wfam)
	if l.stats != nil {
		l.stats.Release(l.wtok)
	}
	l.tryAdaptRW()
	if fam == rwFamNative {
		l.writer.Store(0)
		l.wmu.Unlock()
		return
	}
	l.delegate(fam).Unlock()
}

// tryAdaptRW is the write-side adaptation step, run on every release while
// still holding. The starvation signal is consumed out of band of the
// sampling cadence — it is already rate-limited by the StarveBackouts bound
// a reader must cross to raise it, and making a starving reader wait out a
// sampling period would defeat the point. Everything else happens every
// samplePeriod write sections: multiprogramming check (blocking mode),
// writer-stream detection (phase-fair), calm detection (back to the
// native family), and the reader-free deflation countdown.
//
// All fields are writer-only, ordered by the held write lock — which is
// why every cross-family transitionTo below is the LAST holder-state
// access on its path: the moment the mode store lands, the new family's
// (never-held) write lock is up for grabs and its first holder owns this
// section. The intra-family striped→inline fold is the one exception that
// may keep working afterwards: the native wmu stays held through Unlock.
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
	if l.cfg.disableAdaptation {
		if boundary {
			l.sawReaders = false
		}
		return
	}
	if starved && rwFamily(l.wfam) == rwFamNative {
		l.sawReaders, l.queued = false, 0
		l.streakPeriods, l.calmPeriods, l.idlePeriods = 0, 0, 0
		l.transitionTo(RWModePhaseFair,
			fmt.Sprintf("reader bypassed past %d writer phases", l.cfg.starveBackouts))
		return
	}
	if !boundary {
		return
	}
	saw, queued := l.sawReaders, uint32(l.queued)
	l.sawReaders, l.queued = false, 0
	q := l.writerQueueLen() // includes us: a queue ≥ 2 means another writer waits right now

	if l.monitor().Multiprogrammed() {
		// Contended locks must block so preempted holders get the
		// processor back (paper §3's mutex rationale, applied to both
		// sides); a near-idle lock stays where it is.
		l.streakPeriods, l.calmPeriods = 0, 0
		if cur := RWMode(l.rwmode.Load()); cur.family() != rwFamWritePref && (q >= 2 || saw || l.readersNow() > 0) {
			l.transitionTo(RWModeWritePref, fmt.Sprintf("multiprogramming (writer queue %d)", q))
		}
		return
	}

	switch RWMode(l.rwmode.Load()).family() {
	case rwFamWritePref:
		// The multiprogramming flag dropped (the monitor makes it sticky,
		// so this is already damped): return to the native spin family.
		l.streakPeriods, l.calmPeriods = 0, 0
		l.transitionTo(l.nativeMode(), "no multiprogramming")
	case rwFamPhaseFair:
		if q >= 2 {
			l.calmPeriods = 0
			return
		}
		l.calmPeriods++
		if l.calmPeriods >= l.cfg.fairPeriods {
			l.calmPeriods = 0
			l.transitionTo(l.nativeMode(),
				fmt.Sprintf("writer stream subsided for %d periods", l.cfg.fairPeriods))
		}
	default:
		// Writer-stream detection: sustained writer queueing with readers
		// present is the starvation precondition — move to phase-fair
		// admission before a reader has to raise the signal itself. A
		// stream is a period in which at least half the writers arrived to
		// find another writer ahead of them; that two writers collide at
		// the instant a boundary samples the queue is luck, and happens on
		// a hot key at two goroutines and 10 % writes.
		if queued >= min((l.cfg.samplePeriod+1)/2, math.MaxUint16) && saw {
			if l.streakPeriods < math.MaxUint8 {
				l.streakPeriods++
			}
			if l.streakPeriods >= l.cfg.fairPeriods {
				l.streakPeriods = 0
				l.transitionTo(RWModePhaseFair,
					fmt.Sprintf("sustained writer stream (%d of %d writes queued) with readers present", queued, l.cfg.samplePeriod))
				return
			}
		} else {
			l.streakPeriods = 0
		}
		// Footprint housekeeping: periods in which no reader came fold the
		// stripes back inline (stripe.Counter.Deflate's holder-side
		// contract). Reader silence, not drain luck — saw is false for
		// 4 × 64 writes in a row on a key that is read nine times per
		// write, whenever no drain happens to overlap a reader.
		came := l.rseen.Load() != 0
		if came {
			l.rseen.Store(0)
		}
		if came || l.readers.Sum() != 0 {
			l.idlePeriods = 0
			return
		}
		if l.idlePeriods < math.MaxUint8 {
			l.idlePeriods++
		}
		if l.idlePeriods < l.cfg.deflatePeriods || !l.readers.Inflated() {
			return
		}
		l.readers.Deflate()
		l.idlePeriods = 0
		l.setRWMode(RWModeStriped, RWModeInline,
			fmt.Sprintf("no readers for %d write periods", l.cfg.deflatePeriods))
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
