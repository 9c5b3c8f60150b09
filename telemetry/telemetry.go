// Package telemetry is glstat: an always-on lock telemetry and
// introspection subsystem for GLS/GLK.
//
// The paper ships debugging (§4.2) and profiling (§4.3) as service modes a
// deployment opts into; both are stop-the-world-ish in spirit — they exist
// for development runs. What a production system serving heavy traffic
// needs is the /proc/lock_stat question: "which lock is hot right now, in
// which GLK mode, and how did it get there?" — answerable at any moment,
// with the collection cheap enough to leave on.
//
// A Registry holds one LockStats per lock. The stats are fed by narrow hook
// points inside glk.Lock (wired via glk.Config.Stats) and, for explicit
// Table-1 algorithms, by the Instrument wrapper; the service wires both at
// entry construction, so a service without telemetry has literally no
// telemetry code on its paths — no per-operation branches, no nil checks in
// the service layer (see DESIGN.md §7).
//
// Collection is built for the hot path it observes:
//
//   - counters live in cache-line-striped lanes (internal/stripe.Lanes):
//     each acquisition's updates land on one usually-private line, so
//     always-on accounting adds no shared-line writes — the same discipline
//     as GLK's presence counter;
//   - latencies and queue lengths are sampled, not measured per operation:
//     every SamplePeriod-th arrival (per lane) pays two clock reads and a
//     lane sum, everything else pays plain atomic adds;
//   - rare events (mode transitions) use a plain mutex: they happen at most
//     once per GLK adaptation period.
//
// Read sides: Registry.Snapshot (a point-in-time copy), Snapshot.Diff
// (interval deltas), Snapshot.WriteText (a /proc/lock_stat-style report
// sorted by contention), Snapshot.WriteJSON/ReadJSON (export), and the
// telemetryhttp subpackage (http.Handler and expvar).
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"gls/internal/pad"
	"gls/internal/stripe"
)

// Slot indices within a LockStats lane. One lane line carries every
// per-acquisition counter of one lock.
const (
	slotArrivals   = iota // Lock/TryLock entries (successful or not)
	slotContended         // acquisitions that found the lock held
	slotTryFails          // TryLock attempts that returned false
	slotSamples           // timed acquisitions (wait/hold/queue sampled)
	slotWaitNanos         // total wait time of timed acquisitions
	slotHoldNanos         // total hold time of timed acquisitions
	slotQueueTotal        // total queue length sampled at timed acquisitions
	slotPresent           // goroutines currently at the lock (in/holding)
)

// slotPresent is only maintained for locks that cannot report their own
// presence (the Instrument-wrapped Table-1 algorithms). A lock that already
// counts the goroutines at itself — GLK's presence counter — registers a
// PresenceSampler instead, and Arrive/Failed/Release skip the slot
// entirely: the duplicate pair of same-line atomic adds per operation that
// an earlier revision paid for a live "present" field now costs one
// predicted branch, and snapshots read the lock's own counter.

// Slot indices within a reader-writer lock's second lane block (see
// LockStats.rw). The exclusive slots above carry the lock's *writer* side —
// an RW lock's Lock/TryLock/Unlock flow through Arrive/Acquired/Release
// like any exclusive lock — and these carry the read side plus the one
// cross-side cost worth a lane: how long writers stall draining readers.
const (
	rwSlotRArrivals   = iota // RLock/TryRLock entries
	rwSlotRContended         // reader acquisitions that found a writer active
	rwSlotRTryFails          // TryRLock attempts that returned false
	rwSlotRSamples           // timed reader acquisitions
	rwSlotRWaitNanos         // total reader wait time of timed acquisitions
	rwSlotRQueueTotal        // readers present sampled at timed acquisitions
	rwSlotWDrainNanos        // writer time spent blocked by readers (drain)
	rwSlotRPresent           // readers currently at the lock (non-self-counting)
)

// rwExtra is the read-side telemetry block of an RW lock: the striped lane
// counters above plus the glsfair starvation/phase counters. The latter two
// are plain shared atomics rather than lane slots — the lanes are full
// (LaneSlots counters fit one line), and these are written only on the
// reader slow path (a reader that was bypassed by at least one writer
// phase), where a possibly-shared atomic add is noise next to the wait it
// is describing.
type rwExtra struct {
	lanes stripe.Lanes
	// waitPhases is the total number of writer phases that bypassed
	// blocked readers before they were admitted — the starvation measure
	// the phase-fair policy acts on, summed so reports can show
	// phases-per-contended-acquisition.
	waitPhases atomic.Uint64
	// starved counts readers whose bypass count crossed the configured
	// starvation bound (glk.RWConfig.StarveBackouts) — each one is a
	// reader that asked for phase-fair admission.
	starved atomic.Uint64
}

// DefaultSamplePeriod is how often (in per-lane arrivals) an acquisition is
// timed: its wait latency, hold latency, and the queue length behind the
// lock are recorded. Sampling follows the paper's measurement philosophy
// (writes must be cheap and uncoordinated; reads may be expensive and
// slightly stale) and GLK's own 1-in-128 queue sampling; 64 keeps reports
// fresh on warm locks while the common arrival pays no clock read.
const DefaultSamplePeriod = 64

// Options configures a Registry.
type Options struct {
	// SamplePeriod is the timed-acquisition period. It is rounded up to a
	// power of two so the sampling decision is a mask on a lane-local
	// counter. 0 selects DefaultSamplePeriod; 1 times every acquisition
	// (profiling fidelity — this is what Options.Profile uses).
	SamplePeriod uint64

	// EventBuffer is the capacity of the registry's event ring (see
	// Registry.Events), rounded up to a power of two. 0 selects
	// DefaultEventBuffer. The ring is allocated on first subscribe, so the
	// setting costs nothing until someone streams.
	EventBuffer int
}

// Registry is a process- or service-wide collection of per-lock statistics.
// Create with New (or use Default); register each lock once at construction
// and feed its *LockStats from the lock's own code paths.
//
// All methods are safe for concurrent use. Register/Unregister take a
// mutex, but they run at lock creation/destruction, never per operation.
type Registry struct {
	sampleMask uint64

	mu    sync.RWMutex
	locks map[uint64]*LockStats

	// gen stamps each registration with a unique incarnation id, so Diff
	// can tell a key that was freed and re-created apart from the same
	// lock continuing (their counters must not be subtracted).
	gen uint64

	// pendingLabels holds labels set before their key's first registration
	// (locks are registered lazily, on first use), applied at Register.
	pendingLabels map[uint64]string

	// retired accumulates the counters of unregistered locks so interval
	// totals stay monotonic across Free.
	retired retiredTotals

	// hub is the registry's event stream (see Events); created with the
	// registry so every LockStats can carry the pointer from birth.
	hub *Hub
}

type retiredTotals struct {
	locks        uint64
	counters     [stripe.LaneSlots]uint64
	rwCounters   [stripe.LaneSlots]uint64 // read-side lanes of retired RW locks
	rwWaitPhases uint64                   // starvation/phase counters of retired RW locks
	rwStarved    uint64
	timeouts     uint64 // abort cause counters of retired locks (glsx)
	cancels      uint64
	transitions  uint64

	// Latency histograms of retired locks, in the summed-bucket form (see
	// hist.go), so percentile data survives Free.
	waitHist  []uint64
	holdHist  []uint64
	rwaitHist []uint64
}

// New returns an empty registry.
func New(opts Options) *Registry {
	p := opts.SamplePeriod
	if p == 0 {
		p = DefaultSamplePeriod
	}
	// Round up to a power of two; the decision "n % period == 0" becomes a
	// mask against the lane-local arrival count. Capped at 1<<63 so an
	// absurd period cannot overflow the shift into an endless loop.
	mask := uint64(1)
	for mask < p && mask < 1<<63 {
		mask <<= 1
	}
	return &Registry{
		sampleMask: mask - 1,
		locks:      make(map[uint64]*LockStats),
		hub:        newHub(opts.EventBuffer),
	}
}

// SamplePeriod reports the effective (power-of-two) timed-sampling period.
func (r *Registry) SamplePeriod() uint64 { return r.sampleMask + 1 }

// Register returns the LockStats for key, creating it with the given kind
// ("glk" or an explicit algorithm name) on first registration. Re-register
// of a live key returns the existing stats unchanged, so two racing entry
// constructions agree on one accumulator.
func (r *Registry) Register(key uint64, kind string) *LockStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.locks[key]; st != nil {
		return st
	}
	r.gen++
	st := &LockStats{statsHeader: statsHeader{key: key, kind: kind, gen: r.gen, sampleMask: r.sampleMask, hub: r.hub}}
	if label, ok := r.pendingLabels[key]; ok {
		st.label = label
		delete(r.pendingLabels, key)
	}
	r.locks[key] = st
	return st
}

// Unregister removes key's stats from the registry, folding its counters
// into the retired totals. Locks freed while goroutines still use them keep
// their (now orphaned) LockStats working; only reporting forgets them.
func (r *Registry) Unregister(key uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.locks[key]
	if st == nil {
		return
	}
	delete(r.locks, key)
	sums := st.lanes.SumAll()
	r.retired.locks++
	for i, v := range sums {
		r.retired.counters[i] += v
	}
	if rw := st.rw.Load(); rw != nil {
		rwSums := rw.lanes.SumAll()
		for i, v := range rwSums {
			r.retired.rwCounters[i] += v
		}
		r.retired.rwWaitPhases += rw.waitPhases.Load()
		r.retired.rwStarved += rw.starved.Load()
	}
	r.retired.timeouts += st.timeouts.Load()
	r.retired.cancels += st.cancels.Load()
	if h := st.hist.Load(); h != nil {
		r.retired.waitHist = addBuckets(r.retired.waitHist, h.wait.sum())
		r.retired.holdHist = addBuckets(r.retired.holdHist, h.hold.sum())
		r.retired.rwaitHist = addBuckets(r.retired.rwaitHist, h.rwait.sum())
	}
	st.cold.Lock()
	label := st.label
	for _, tr := range st.transitions {
		r.retired.transitions += tr.Count
	}
	st.cold.Unlock()
	r.hub.Publish(Event{Kind: EventRetired, Key: st.key, Label: label, LockKind: st.kind})
}

// Get returns the registered stats for key, or nil.
func (r *Registry) Get(key uint64) *LockStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.locks[key]
}

// SetLabel attaches a human-readable name to key's report lines. Labels
// set before the key's first use (locks register lazily) are remembered
// and applied when the lock appears.
func (r *Registry) SetLabel(key uint64, label string) {
	if st := r.Get(key); st != nil {
		st.cold.Lock()
		st.label = label
		st.cold.Unlock()
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.locks[key]; st != nil { // registered in the window above
		st.cold.Lock()
		st.label = label
		st.cold.Unlock()
		return
	}
	if r.pendingLabels == nil {
		r.pendingLabels = make(map[uint64]string)
	}
	r.pendingLabels[key] = label
}

// Transition is one observed mode change, aggregated per (From, To) edge.
// Reason is the most recent trigger for that edge, in GLK's own words.
type Transition struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Reason string `json:"reason,omitempty"`
	Count  uint64 `json:"count"`
}

// PresenceSampler reports how many goroutines are currently at a lock
// (arriving, waiting, or holding). Locks that maintain their own presence
// count — GLK's lazily-striped counter — register one via
// SetPresenceSampler so telemetry reads it instead of duplicating the
// accounting in slotPresent.
type PresenceSampler func() int64

// statsHeader is the read-mostly part of a LockStats, padded so the hot
// lanes that follow start on their own cache line. presence, readers, and
// rw are written once right after registration (lock construction) and
// read-only afterwards.
type statsHeader struct {
	key        uint64
	gen        uint64 // registration incarnation (see Registry.gen)
	sampleMask uint64
	kind       string
	presence   atomic.Pointer[PresenceSampler]
	// readers reports how many readers are currently at the lock, for
	// self-counting RW locks (glk.RWLock's striped reader counter); nil
	// otherwise. The RW analogue of presence.
	readers atomic.Pointer[PresenceSampler]
	// rw is the read-side telemetry block, allocated by EnableRW at RW lock
	// construction and nil for exclusive locks — reader telemetry costs a
	// pointer, not 4 resident lines, on the overwhelming majority of locks.
	// Atomic only so a snapshot racing a construction reads nil cleanly;
	// the hooks themselves always run after EnableRW.
	rw atomic.Pointer[rwExtra]
	// hist is the latency-histogram block, allocated lazily on the first
	// timed sample (see hist.go) — the same 8-bytes-until-needed discipline
	// as rw, applied to percentile data.
	hist atomic.Pointer[histBlock]
	// hub is the owning registry's event stream; set at Register, read by
	// the cold emission sites (transitions, starvation, aborts, folds).
	hub *Hub
}

// LockStats accumulates the telemetry of one lock. Instances come from
// Registry.Register; the hook methods (Arrive/Acquired/Failed/Release,
// Transition) are called from inside the lock implementation — glk.Lock
// calls them when Config.Stats is set, Instrument wraps any other
// locks.Lock — never from application code.
//
// Layout mirrors glk.Lock's sectioning: an immutable header, the striped
// hot counters, a holder-only timestamp, then mutex-guarded cold state,
// each section starting on its own cache line (telemetry_test.go pins it).
type LockStats struct {
	statsHeader
	_ [(pad.CacheLineSize - unsafe.Sizeof(statsHeader{})%pad.CacheLineSize) % pad.CacheLineSize]byte

	// lanes carries every per-acquisition counter, striped so concurrent
	// arrivals usually write disjoint lines (see the slot constants).
	lanes stripe.Lanes

	// holdStart is when the current holder's timed acquisition completed;
	// zero when the current acquisition is untimed. Holder-only state,
	// ordered by the lock itself (set in Acquired, consumed in Release).
	holdStart time.Time

	// timeouts/cancels split the aborted acquisitions (glsx) by cause:
	// deadline expiry vs done-channel cancellation. Plain shared atomics
	// rather than lane slots — the lanes are full, and these are written
	// only by a waiter that already waited a deadline out, where one
	// possibly-shared add is noise (the rwExtra.waitPhases precedent). They
	// share the holder line: both writers are rare by construction.
	timeouts atomic.Uint64
	cancels  atomic.Uint64
	_        [(pad.CacheLineSize - (unsafe.Sizeof(time.Time{})+16)%pad.CacheLineSize) % pad.CacheLineSize]byte

	// Cold, rarely-written introspection state.
	cold        sync.Mutex
	label       string
	mode        string // current GLK mode; empty for fixed-algorithm locks
	transitions []Transition
}

// SetPresenceSampler hands the stats a reader for the lock's own presence
// count. Call it at lock construction, before the lock is used: from then
// on Arrive/Failed/Release skip the slotPresent accounting (the lock is
// already counting) and snapshots and queue samples read the sampler.
func (s *LockStats) SetPresenceSampler(f PresenceSampler) {
	s.presence.Store(&f)
}

// EnableRW allocates the read-side telemetry block, marking this lock's
// stats as reader-writer. Call it at lock construction, before any RArrive;
// the RW hook methods panic (nil block) on stats that were never enabled,
// because only lock constructors call them and forgetting EnableRW is a bug
// in the constructor, not a runtime condition.
func (s *LockStats) EnableRW() {
	if s.rw.Load() == nil {
		s.rw.CompareAndSwap(nil, new(rwExtra))
	}
}

// SetReaderSampler hands the stats a reader for the lock's own count of
// present readers — the RW analogue of SetPresenceSampler. Self-counting RW
// locks (glk.RWLock's striped reader counter) register one so RArrive/
// RFailed/RRelease skip the rwSlotRPresent accounting and reader queue
// samples read the lock's own counter.
func (s *LockStats) SetReaderSampler(f PresenceSampler) {
	s.readers.Store(&f)
}

// selfCounting reports whether the lock supplies its own presence count.
func (s *LockStats) selfCounting() bool { return s.presence.Load() != nil }

// presentNow reads the current presence: the lock's own counter when it
// reports one, the slotPresent lanes otherwise.
func (s *LockStats) presentNow() int64 {
	if p := s.presence.Load(); p != nil {
		return (*p)()
	}
	return int64(s.lanes.Sum(slotPresent))
}

// selfCountingReaders reports whether the lock supplies its own reader
// count.
func (s *LockStats) selfCountingReaders() bool { return s.readers.Load() != nil }

// readersNow reads the current reader presence of an RW lock: the lock's
// own counter when it reports one, the rwSlotRPresent lanes otherwise.
func (s *LockStats) readersNow() int64 {
	if p := s.readers.Load(); p != nil {
		return (*p)()
	}
	rw := s.rw.Load()
	if rw == nil {
		return 0
	}
	return int64(rw.lanes.Sum(rwSlotRPresent))
}

// Acq is the per-acquisition context carried from Arrive to
// Acquired/Failed. It lives on the acquirer's stack; zero allocation.
type Acq struct {
	st    *LockStats
	tok   uint64
	start time.Time
	timed bool
}

// Arrive records a goroutine entering the lock's acquire path (Lock or
// TryLock). tok is the caller's stripe token (stripe.Self()); passing the
// same token to the paired Acquired/Failed/Release keeps one operation's
// updates on one lane. The fast path is two atomic adds to one lane line;
// every SamplePeriod-th arrival per lane additionally reads the clock and
// becomes a timed acquisition.
func (s *LockStats) Arrive(tok uint64) Acq {
	n := s.lanes.AddGet(tok, slotArrivals, 1)
	if !s.selfCounting() {
		s.lanes.Add(tok, slotPresent, 1)
	}
	a := Acq{st: s, tok: tok}
	if n&s.sampleMask == 0 {
		a.timed = true
		a.start = time.Now()
	}
	return a
}

// Acquired records a successful acquisition. contended reports whether the
// lock was observed held on arrival (the caller's try-then-wait probe).
// Timed acquisitions record their wait latency and sample the queue length
// — the arrivals currently present, holder included, exactly the paper's
// §4.3 queue measure — and arm the hold timer consumed by Release.
//
// Must be called by the new holder, before it releases.
func (a Acq) Acquired(contended bool) {
	s := a.st
	if contended {
		s.lanes.Add(a.tok, slotContended, 1)
	}
	if !a.timed {
		return
	}
	now := time.Now()
	wait := now.Sub(a.start)
	s.lanes.Add(a.tok, slotSamples, 1)
	s.lanes.Add(a.tok, slotWaitNanos, uint64(wait))
	s.histb().wait.record(a.tok, wait)
	q := s.presentNow()
	if q < 1 {
		q = 1 // racing decrements can transiently hide even the holder
	}
	s.lanes.Add(a.tok, slotQueueTotal, uint64(q))
	s.holdStart = now
}

// Failed records a TryLock that did not acquire, undoing the presence
// recorded by Arrive.
func (a Acq) Failed() {
	a.st.lanes.Add(a.tok, slotTryFails, 1)
	if !a.st.selfCounting() {
		a.st.lanes.Add(a.tok, slotPresent, ^uint64(0))
	}
}

// Aborted records an acquisition abandoned mid-wait (a cancellable Lock
// whose deadline or done channel fired while queued). The abort lands in
// the failed lane exactly once — an abort is a non-acquisition, so
// Acquisitions = Arrivals − TryFails stays exact — plus the cause counter:
// timeouts when timeout is true, cancels otherwise. Exactly one of
// Acquired/Failed/Aborted may be called per Arrive.
func (a Acq) Aborted(timeout bool) {
	a.Failed()
	if timeout {
		a.st.publishAbort(a.st.timeouts.Add(1), "deadline timeout")
	} else {
		a.st.publishAbort(a.st.cancels.Add(1), "context cancel")
	}
}

// Release records the holder leaving: the hold latency if this acquisition
// was timed, and the presence decrement. Must be called by the holder while
// it still holds the lock (the hold timer is holder-only state).
func (s *LockStats) Release(tok uint64) {
	if !s.holdStart.IsZero() {
		hold := time.Since(s.holdStart)
		s.lanes.Add(tok, slotHoldNanos, uint64(hold))
		s.histb().hold.record(tok, hold)
		s.holdStart = time.Time{}
	}
	if !s.selfCounting() {
		s.lanes.Add(tok, slotPresent, ^uint64(0))
	}
}

// Timed reports whether this acquisition is a timed sample. Lock
// implementations with holder-side costs telemetry cannot see from the
// hooks alone — glk.RWLock's writer measuring its reader drain — use it to
// pay their own clock reads only on sampled acquisitions.
func (a Acq) Timed() bool { return a.timed }

// RArrive records a goroutine entering the lock's read-acquire path (RLock
// or TryRLock) — the read-side twin of Arrive, accumulating into the rw
// lane block. The stats must have been EnableRW'd at construction.
func (s *LockStats) RArrive(tok uint64) Acq {
	rw := s.rw.Load()
	n := rw.lanes.AddGet(tok, rwSlotRArrivals, 1)
	if !s.selfCountingReaders() {
		rw.lanes.Add(tok, rwSlotRPresent, 1)
	}
	a := Acq{st: s, tok: tok}
	if n&s.sampleMask == 0 {
		a.timed = true
		a.start = time.Now()
	}
	return a
}

// RAcquired records a successful read acquisition. contended reports
// whether a writer was active on arrival. Timed acquisitions record their
// wait latency and sample the count of present readers. Unlike Acquired
// there is no hold timer: read holds overlap, and the single holdStart
// word is writer-only state.
func (a Acq) RAcquired(contended bool) {
	s := a.st
	rw := s.rw.Load()
	if contended {
		rw.lanes.Add(a.tok, rwSlotRContended, 1)
	}
	if !a.timed {
		return
	}
	rwait := time.Since(a.start)
	rw.lanes.Add(a.tok, rwSlotRSamples, 1)
	rw.lanes.Add(a.tok, rwSlotRWaitNanos, uint64(rwait))
	s.histb().rwait.record(a.tok, rwait)
	q := s.readersNow()
	if q < 1 {
		q = 1 // racing decrements can transiently hide even this reader
	}
	rw.lanes.Add(a.tok, rwSlotRQueueTotal, uint64(q))
}

// RFailed records a TryRLock that did not acquire, undoing the reader
// presence recorded by RArrive.
func (a Acq) RFailed() {
	rw := a.st.rw.Load()
	rw.lanes.Add(a.tok, rwSlotRTryFails, 1)
	if !a.st.selfCountingReaders() {
		rw.lanes.Add(a.tok, rwSlotRPresent, ^uint64(0))
	}
}

// RRelease records a reader leaving.
func (s *LockStats) RRelease(tok uint64) {
	if !s.selfCountingReaders() {
		s.rw.Load().lanes.Add(tok, rwSlotRPresent, ^uint64(0))
	}
}

// WriterDrained records time a writer spent blocked by readers (sweeping
// the reader count down to zero) — the cross-side cost that tells an
// operator "this lock's writers are paying for its read scalability".
// Callers gate their clock reads on Acq.Timed, so the figure is sampled on
// the same schedule as wait/hold latencies.
func (s *LockStats) WriterDrained(tok uint64, d time.Duration) {
	s.rw.Load().lanes.Add(tok, rwSlotWDrainNanos, uint64(d))
}

// RWaitedPhases records that a blocked reader was bypassed by n writer
// phases before being admitted — the glsfair starvation measure. Callers
// invoke it once per contended read acquisition (n > 0), so the cost lands
// on the path that already waited.
func (s *LockStats) RWaitedPhases(tok uint64, n uint64) {
	_ = tok // the counter is deliberately unstriped; see rwExtra
	s.rw.Load().waitPhases.Add(n)
}

// RStarvedEvent records a reader whose bypass count crossed the starvation
// bound — the event that sends an adaptive lock to phase-fair admission.
func (s *LockStats) RStarvedEvent(tok uint64) {
	_ = tok
	n := s.rw.Load().starved.Add(1)
	// Rate-limited like abort storms: the first starved reader announces
	// the condition, every 64th thereafter reports how far it has grown.
	if s.hub != nil && (n == 1 || n&63 == 0) {
		s.hub.Publish(Event{
			Kind: EventStarvation, Key: s.key, Label: s.labelFor(),
			LockKind: s.kind, Reason: "reader crossed the starvation bound", Count: n,
		})
	}
}

// Transition records a mode change (GLK's holder calls this after flipping
// the mode word). from/to are mode names; reason is GLK's explanation, kept
// per (from, to) edge with the latest occurrence winning.
func (s *LockStats) Transition(from, to, reason string) {
	s.cold.Lock()
	s.mode = to
	count := uint64(1)
	found := false
	for i := range s.transitions {
		if s.transitions[i].From == from && s.transitions[i].To == to {
			s.transitions[i].Count++
			s.transitions[i].Reason = reason
			count = s.transitions[i].Count
			found = true
			break
		}
	}
	if !found {
		s.transitions = append(s.transitions, Transition{From: from, To: to, Reason: reason, Count: 1})
	}
	label := s.label
	s.cold.Unlock()
	if s.hub != nil {
		s.hub.Publish(Event{
			Kind: EventTransition, Key: s.key, Label: label, LockKind: s.kind,
			From: from, To: to, Reason: reason, Count: count,
		})
	}
}

// SetMode records the current mode without counting a transition (initial
// mode at construction).
func (s *LockStats) SetMode(mode string) {
	s.cold.Lock()
	s.mode = mode
	s.cold.Unlock()
}

// snapshot copies the stats into a LockSnapshot.
func (s *LockStats) snapshot() LockSnapshot {
	sums := s.lanes.SumAll()
	present := s.presentNow()
	if present < 0 {
		present = 0
	}
	ls := LockSnapshot{
		Key:        s.key,
		Gen:        s.gen,
		Kind:       s.kind,
		Arrivals:   sums[slotArrivals],
		TryFails:   sums[slotTryFails],
		Contended:  sums[slotContended],
		Samples:    sums[slotSamples],
		WaitNanos:  sums[slotWaitNanos],
		HoldNanos:  sums[slotHoldNanos],
		QueueTotal: sums[slotQueueTotal],
		Present:    present,
		Timeouts:   s.timeouts.Load(),
		Cancels:    s.cancels.Load(),
	}
	// Clamp like Present above: SumAll reads the slots while writers run,
	// so a burst of Arrive+Failed pairs landing between the arrivals and
	// tryfails reads can transiently make TryFails exceed Arrivals.
	if ls.TryFails > ls.Arrivals {
		ls.Acquisitions = 0
	} else {
		ls.Acquisitions = ls.Arrivals - ls.TryFails
	}
	if h := s.hist.Load(); h != nil {
		ls.WaitHist = h.wait.sum()
		ls.HoldHist = h.hold.sum()
		ls.RWaitHist = h.rwait.sum()
	}
	if rwl := s.rw.Load(); rwl != nil {
		rw := rwl.lanes.SumAll()
		rp := s.readersNow()
		if rp < 0 {
			rp = 0
		}
		ls.IsRW = true
		ls.RArrivals = rw[rwSlotRArrivals]
		ls.RContended = rw[rwSlotRContended]
		ls.RTryFails = rw[rwSlotRTryFails]
		ls.RSamples = rw[rwSlotRSamples]
		ls.RWaitNanos = rw[rwSlotRWaitNanos]
		ls.RQueueTotal = rw[rwSlotRQueueTotal]
		ls.WDrainNanos = rw[rwSlotWDrainNanos]
		ls.RWaitPhases = rwl.waitPhases.Load()
		ls.RStarved = rwl.starved.Load()
		ls.RPresent = rp
		ls.RAcquisitions = sub0(ls.RArrivals, ls.RTryFails)
	}
	s.cold.Lock()
	ls.Label = s.label
	ls.Mode = s.mode
	if len(s.transitions) > 0 {
		ls.Transitions = append([]Transition(nil), s.transitions...)
	}
	s.cold.Unlock()
	return ls
}

// Snapshot returns a point-in-time copy of every registered lock's
// counters, sorted most-contended first (see Snapshot for the ordering).
// Counters are read while writers run; each value is exact modulo the
// operations in flight.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	stats := make([]*LockStats, 0, len(r.locks))
	for _, st := range r.locks {
		stats = append(stats, st)
	}
	retired := r.retired
	// Clone the histogram slices before dropping the lock: a concurrent
	// fold mutates their backing arrays in place under the write lock.
	retired.waitHist = append([]uint64(nil), r.retired.waitHist...)
	retired.holdHist = append([]uint64(nil), r.retired.holdHist...)
	retired.rwaitHist = append([]uint64(nil), r.retired.rwaitHist...)
	r.mu.RUnlock()

	snap := &Snapshot{
		SamplePeriod: r.SamplePeriod(),
		Locks:        make([]LockSnapshot, 0, len(stats)),
		Retired: RetiredSnapshot{
			Locks:         retired.locks,
			Arrivals:      retired.counters[slotArrivals],
			Contended:     retired.counters[slotContended],
			TryFails:      retired.counters[slotTryFails],
			Acquisitions:  sub0(retired.counters[slotArrivals], retired.counters[slotTryFails]),
			RArrivals:     retired.rwCounters[rwSlotRArrivals],
			RContended:    retired.rwCounters[rwSlotRContended],
			RTryFails:     retired.rwCounters[rwSlotRTryFails],
			RAcquisitions: sub0(retired.rwCounters[rwSlotRArrivals], retired.rwCounters[rwSlotRTryFails]),
			RWaitPhases:   retired.rwWaitPhases,
			RStarved:      retired.rwStarved,
			Timeouts:      retired.timeouts,
			Cancels:       retired.cancels,
			Transitions:   retired.transitions,
			WaitHist:      retired.waitHist,
			HoldHist:      retired.holdHist,
			RWaitHist:     retired.rwaitHist,
		},
	}
	for _, st := range stats {
		snap.Locks = append(snap.Locks, st.snapshot())
	}
	snap.sort()
	return snap
}

// sub0 is a-b clamped at zero, for derived counters built from racy reads.
func sub0(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

func (s *Snapshot) sort() {
	// Contention counts both sides of an RW lock: a reader blocked behind
	// a writer is contention exactly like a writer blocked behind a holder,
	// and a read-mostly hot spot whose writer side is quiet must not sort
	// below a mildly-contended exclusive lock (top-N reports truncate).
	sort.Slice(s.Locks, func(i, j int) bool {
		a, b := &s.Locks[i], &s.Locks[j]
		if ac, bc := a.Contended+a.RContended, b.Contended+b.RContended; ac != bc {
			return ac > bc
		}
		if aa, ba := a.Arrivals+a.RArrivals, b.Arrivals+b.RArrivals; aa != ba {
			return aa > ba
		}
		return a.Key < b.Key
	})
}
