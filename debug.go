package gls

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gls/internal/gid"
	"gls/locks"
	"gls/telemetry"
)

// IssueKind classifies the lock-usage problems GLS debug mode detects
// (paper §4.2).
type IssueKind int

// The detectable issue classes.
const (
	// IssueUninitializedLock: a key was locked without InitLock under
	// StrictInit, or unlocked without ever having been locked.
	IssueUninitializedLock IssueKind = iota + 1
	// IssueDoubleLock: the current owner tried to acquire its own lock.
	IssueDoubleLock
	// IssueUnlockFree: an unlock targeted a lock nobody holds.
	IssueUnlockFree
	// IssueUnlockWrongOwner: an unlock came from a goroutine that does not
	// hold the lock.
	IssueUnlockWrongOwner
	// IssueDeadlock: a cycle was found in the wait-for graph.
	IssueDeadlock
	// IssueAlgorithmMismatch: a key was used through two different explicit
	// lock interfaces.
	IssueAlgorithmMismatch
	// IssueFreeHeld: Free was called on a lock that is currently held.
	IssueFreeHeld
	// IssueUpgradeDeadlock: a goroutine tried to write-lock (or RLock) a
	// key whose lock it already holds the other way — RLock→Lock is the
	// classic rwlock upgrade deadlock (the write lock waits for all
	// readers, including its own caller), and Lock→RLock self-blocks the
	// same way.
	IssueUpgradeDeadlock
	// IssueRUnlockNotReader: RUnlock by a goroutine that holds no read
	// share of the key (the read-side sibling of wrong-owner/already-free).
	IssueRUnlockNotReader

	issueKindCount = int(IssueRUnlockNotReader) + 1
)

// String returns the warning label used in reports.
func (k IssueKind) String() string {
	switch k {
	case IssueUninitializedLock:
		return "Uninitialized lock"
	case IssueDoubleLock:
		return "Double locking"
	case IssueUnlockFree:
		return "Already free"
	case IssueUnlockWrongOwner:
		return "Wrong owner"
	case IssueDeadlock:
		return "Deadlock"
	case IssueAlgorithmMismatch:
		return "Algorithm mismatch"
	case IssueFreeHeld:
		return "Freeing held lock"
	case IssueUpgradeDeadlock:
		return "Upgrade deadlock"
	case IssueRUnlockNotReader:
		return "Not a reader"
	default:
		return fmt.Sprintf("IssueKind(%d)", int(k))
	}
}

// WaitEdge is one "goroutine G waits for key K" element of a deadlock cycle.
type WaitEdge struct {
	Goroutine uint64
	Key       uint64
}

// Issue is one detected lock-usage problem.
type Issue struct {
	Kind      IssueKind
	Key       uint64
	Goroutine uint64 // the goroutine performing the faulty operation
	Owner     uint64 // the lock's owner at detection time, if any
	Message   string
	Stack     string     // formatted backtrace of the faulty call site
	Cycle     []WaitEdge // deadlocks only: the wait-for cycle, closed
}

// String formats the issue in the paper's report style.
func (i Issue) String() string {
	var b strings.Builder
	if i.Kind == IssueDeadlock {
		fmt.Fprintf(&b, "[GLS]WARNING> DEADLOCK %#x - cycle detected\n", i.Key)
		parts := make([]string, 0, len(i.Cycle))
		for _, e := range i.Cycle {
			parts = append(parts, fmt.Sprintf("[%d waits for %#x]", e.Goroutine, e.Key))
		}
		b.WriteString(strings.Join(parts, " ->\n"))
		b.WriteByte('\n')
	} else {
		verb := "LOCK"
		switch i.Kind {
		case IssueUnlockFree, IssueUnlockWrongOwner, IssueRUnlockNotReader:
			verb = "UNLOCK"
		case IssueFreeHeld:
			verb = "FREE"
		case IssueUninitializedLock:
			if strings.HasPrefix(i.Message, "unlock") {
				verb = "UNLOCK"
			}
		}
		fmt.Fprintf(&b, "[GLS]WARNING> %s %#x - %s", verb, i.Key, i.Kind)
		if i.Message != "" {
			fmt.Fprintf(&b, " (%s)", i.Message)
		}
		b.WriteByte('\n')
	}
	if i.Stack != "" {
		for _, line := range strings.Split(strings.TrimRight(i.Stack, "\n"), "\n") {
			fmt.Fprintf(&b, "[BACKTRACE] %s\n", line)
		}
	}
	return b.String()
}

// waitRecord tracks one blocked goroutine for deadlock detection.
type waitRecord struct {
	key   uint64
	since time.Time
	pcs   []uintptr
}

// debugState is the §4.2 bookkeeping: who waits on what, who owns what
// (owners live in the entries), and the watchdog.
type debugState struct {
	mu               sync.Mutex
	waiting          map[gid.ID]*waitRecord
	initialized      map[uint64]bool
	mismatchReported map[uint64]bool
	reportedCycles   map[string]bool

	// readers tracks the current read-share holders per key (share count
	// per goroutine — RLock is not reentrant, but a buggy program's double
	// RLock must still balance two RUnlocks). It is the read-side owner
	// bookkeeping: RUnlock validation, upgrade detection, and the
	// multi-holder edges of the deadlock walk all read it.
	readers map[uint64]map[gid.ID]int

	stop chan struct{}
	done chan struct{}
}

func newDebugState() *debugState {
	return &debugState{
		waiting:          make(map[gid.ID]*waitRecord),
		initialized:      make(map[uint64]bool),
		mismatchReported: make(map[uint64]bool),
		reportedCycles:   make(map[string]bool),
		readers:          make(map[uint64]map[gid.ID]int),
		stop:             make(chan struct{}),
		done:             make(chan struct{}),
	}
}

// start launches the deadlock watchdog.
func (d *debugState) start(s *Service) {
	go func() {
		defer close(d.done)
		ticker := time.NewTicker(s.opts.DeadlockCheckInterval)
		defer ticker.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-ticker.C:
				s.CheckDeadlocks()
			}
		}
	}()
}

// stopWatchdog halts the watchdog and waits for it to exit (idempotence is
// handled by Service.Close).
func (d *debugState) stopWatchdog() {
	close(d.stop)
	<-d.done
}

func (d *debugState) markInitialized(key uint64) {
	d.mu.Lock()
	d.initialized[key] = true
	d.mu.Unlock()
}

func (d *debugState) isInitialized(key uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.initialized[key]
}

func (d *debugState) forget(key uint64) {
	d.mu.Lock()
	delete(d.initialized, key)
	delete(d.mismatchReported, key)
	delete(d.readers, key)
	d.mu.Unlock()
}

// addReader records g as holding a read share of key.
func (d *debugState) addReader(key uint64, g gid.ID) {
	d.mu.Lock()
	m := d.readers[key]
	if m == nil {
		m = make(map[gid.ID]int)
		d.readers[key] = m
	}
	m[g]++
	d.mu.Unlock()
}

// dropReader removes one of g's read shares of key, reporting whether g
// held one.
func (d *debugState) dropReader(key uint64, g gid.ID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.readers[key]
	if m == nil || m[g] == 0 {
		return false
	}
	m[g]--
	if m[g] == 0 {
		delete(m, g)
		if len(m) == 0 {
			delete(d.readers, key)
		}
	}
	return true
}

// holdsReadShare reports whether g currently holds a read share of key.
func (d *debugState) holdsReadShare(key uint64, g gid.ID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.readers[key][g] > 0
}

// setWaiting records that g is blocked on key, with the blocking call site.
// Only the contended path pays this cost — the paper's §4.2 "Removing GLS
// Deadlock-detection Overhead" optimization (metadata is updated only when a
// thread actually waits).
func (d *debugState) setWaiting(g gid.ID, key uint64) {
	pcs := make([]uintptr, 16)
	n := runtime.Callers(4, pcs)
	rec := &waitRecord{key: key, since: time.Now(), pcs: pcs[:n]}
	d.mu.Lock()
	d.waiting[g] = rec
	d.mu.Unlock()
}

func (d *debugState) clearWaiting(g gid.ID) {
	d.mu.Lock()
	delete(d.waiting, g)
	d.mu.Unlock()
}

// report counts and delivers an issue.
func (s *Service) report(iss Issue) {
	if int(iss.Kind) < issueKindCount {
		s.issueCounts[iss.Kind].Add(1)
	}
	// Deadlocks also go out on the telemetry event stream: a live glsstat
	// -top (or any subscriber) sees the cycle without wiring OnIssue.
	if s.tele != nil && iss.Kind == IssueDeadlock {
		s.tele.Events().Publish(telemetry.Event{
			Kind:   telemetry.EventDeadlock,
			Key:    iss.Key,
			Reason: iss.Message,
			Count:  uint64(len(iss.Cycle)),
		})
	}
	if s.opts.OnIssue != nil {
		s.opts.OnIssue(iss)
		return
	}
	fmt.Fprint(s.opts.Stderr, iss.String())
}

// IssueCount returns how many issues of the given kind have been detected.
func (s *Service) IssueCount(k IssueKind) uint64 {
	if int(k) >= issueKindCount || k < 0 {
		return 0
	}
	return s.issueCounts[k].Load()
}

// captureStack formats the caller's stack for issue reports, skipping the
// GLS frames themselves.
func captureStack(skip int) string {
	pcs := make([]uintptr, 16)
	n := runtime.Callers(skip, pcs)
	return formatPCs(pcs[:n])
}

func formatPCs(pcs []uintptr) string {
	if len(pcs) == 0 {
		return ""
	}
	frames := runtime.CallersFrames(pcs)
	var b strings.Builder
	i := 0
	for {
		f, more := frames.Next()
		fmt.Fprintf(&b, "#%d %s:%d (%s)\n", i, f.File, f.Line, f.Function)
		i++
		if !more || i >= 8 {
			break
		}
	}
	return b.String()
}

// debugPreLock runs the acquisition-time checks.
func (s *Service) debugPreLock(me gid.ID, e *entry, created bool, requested locks.Algorithm) {
	if created && s.opts.StrictInit && !s.dbg.isInitialized(e.key) {
		s.report(Issue{
			Kind:      IssueUninitializedLock,
			Key:       e.key,
			Goroutine: uint64(me),
			Message:   "lock of a key never initialized (StrictInit)",
			Stack:     captureStack(4),
		})
	}
	if !created && e.algo() != requested {
		s.dbg.mu.Lock()
		dup := s.dbg.mismatchReported[e.key]
		if !dup {
			s.dbg.mismatchReported[e.key] = true
		}
		s.dbg.mu.Unlock()
		if !dup {
			s.report(Issue{
				Kind:      IssueAlgorithmMismatch,
				Key:       e.key,
				Goroutine: uint64(me),
				Message: fmt.Sprintf("lock requested as %s but key is mapped to %s",
					algoName(requested), algoName(e.algo())),
				Stack: captureStack(4),
			})
		}
	}
	if gid.ID(e.owner.Load()) == me {
		s.report(Issue{
			Kind:      IssueDoubleLock,
			Key:       e.key,
			Goroutine: uint64(me),
			Owner:     uint64(me),
			Message:   "goroutine already owns this lock",
			Stack:     captureStack(4),
		})
	}
	if e.rwLock() != nil && s.dbg.holdsReadShare(e.key, me) {
		// RLock→Lock on one key: the write acquisition drains all readers,
		// this caller included — it waits for itself (§4.2's deadlock
		// family, caught before it blocks rather than by the watchdog).
		s.report(Issue{
			Kind:      IssueUpgradeDeadlock,
			Key:       e.key,
			Goroutine: uint64(me),
			Message:   "write lock requested while holding a read share (RLock→Lock upgrade deadlocks)",
			Stack:     captureStack(4),
		})
	}
}

// debugLock acquires e's lock with owner/waiting bookkeeping. Profile and
// telemetry statistics need no handling here: they are recorded inside the
// lock object itself (the TryLock probe and the Lock both land in the same
// per-lock accumulator, and failed probes are netted out as TryLock
// failures). One visible consequence: with Debug and telemetry combined,
// the raw arrivals/try-fail columns include the probes — a contended
// debug-mode Lock reads as two arrivals and one TryLock failure — while
// acquisitions stay exact. Debug mode is a diagnostic configuration; its
// reports describe what the service did on the lock, probes included.
func (s *Service) debugLock(me gid.ID, e *entry) {
	if !e.exclusive().TryLock() {
		s.dbg.setWaiting(me, e.key)
		e.exclusive().Lock()
		s.dbg.clearWaiting(me)
	}
	e.owner.Store(uint64(me))
}

// debugTryLock try-acquires e's lock with owner bookkeeping.
func (s *Service) debugTryLock(me gid.ID, e *entry) bool {
	if !e.exclusive().TryLock() {
		return false
	}
	e.owner.Store(uint64(me))
	return true
}

// debugUnlock releases key's lock after the §4.2 release checks. Faulty
// releases are reported and *not* forwarded to the low-level lock, so a
// buggy program keeps a consistent lock state (unlocking a free ticket lock
// would corrupt it).
func (s *Service) debugUnlock(key uint64, e *entry) {
	me := gid.Get()
	if e == nil {
		s.report(Issue{
			Kind:      IssueUninitializedLock,
			Key:       key,
			Goroutine: uint64(me),
			Message:   "unlock of a key that was never locked",
			Stack:     captureStack(4),
		})
		return
	}
	owner := gid.ID(e.owner.Load())
	switch {
	case owner == 0:
		s.report(Issue{
			Kind:      IssueUnlockFree,
			Key:       key,
			Goroutine: uint64(me),
			Message:   "unlock of an already-free lock",
			Stack:     captureStack(4),
		})
		return
	case owner != me:
		s.report(Issue{
			Kind:      IssueUnlockWrongOwner,
			Key:       key,
			Goroutine: uint64(me),
			Owner:     uint64(owner),
			Message:   fmt.Sprintf("unlock by goroutine %d but owner is %d", me, owner),
			Stack:     captureStack(4),
		})
		return
	}
	e.owner.Store(0)
	e.exclusive().Unlock()
}

// debugPreRLock runs the read-acquisition checks: StrictInit, RW-algorithm
// mismatch, and the Lock→RLock half of the upgrade deadlock (the write
// holder read-locking its own key blocks on its own writer flag).
func (s *Service) debugPreRLock(me gid.ID, e *entry, created bool, requested locks.RWAlgorithm) {
	if created && s.opts.StrictInit && !s.dbg.isInitialized(e.key) {
		s.report(Issue{
			Kind:      IssueUninitializedLock,
			Key:       e.key,
			Goroutine: uint64(me),
			Message:   "rlock of a key never initialized (StrictInit)",
			Stack:     captureStack(5),
		})
	}
	if !created && e.boxed().rwalgo != requested {
		s.dbg.mu.Lock()
		dup := s.dbg.mismatchReported[e.key]
		if !dup {
			s.dbg.mismatchReported[e.key] = true
		}
		s.dbg.mu.Unlock()
		if !dup {
			s.report(Issue{
				Kind:      IssueAlgorithmMismatch,
				Key:       e.key,
				Goroutine: uint64(me),
				Message: fmt.Sprintf("rlock requested as %s but key is mapped to %s",
					rwAlgoName(requested), rwAlgoName(e.boxed().rwalgo)),
				Stack: captureStack(5),
			})
		}
	}
	if gid.ID(e.owner.Load()) == me {
		s.report(Issue{
			Kind:      IssueUpgradeDeadlock,
			Key:       e.key,
			Goroutine: uint64(me),
			Owner:     uint64(me),
			Message:   "read share requested while holding the write lock (Lock→RLock self-blocks)",
			Stack:     captureStack(5),
		})
	}
}

// debugRLock acquires a read share with waiting/reader bookkeeping. Like
// debugLock, only the contended path pays the wait-record cost.
func (s *Service) debugRLock(e *entry, created bool, requested locks.RWAlgorithm) {
	me := gid.Get()
	s.debugPreRLock(me, e, created, requested)
	if !e.rwLock().TryRLock() {
		s.dbg.setWaiting(me, e.key)
		e.rwLock().RLock()
		s.dbg.clearWaiting(me)
	}
	s.dbg.addReader(e.key, me)
}

// debugTryRLock try-acquires a read share with reader bookkeeping.
func (s *Service) debugTryRLock(e *entry, created bool, requested locks.RWAlgorithm) bool {
	me := gid.Get()
	s.debugPreRLock(me, e, created, requested)
	if !e.rwLock().TryRLock() {
		return false
	}
	s.dbg.addReader(e.key, me)
	return true
}

// debugRUnlock releases a read share after the release checks. Faulty
// releases are reported and not forwarded, mirroring debugUnlock: an
// RUnlock from a non-reader would corrupt the reader count under every
// implementation in the family.
func (s *Service) debugRUnlock(key uint64, e *entry) {
	me := gid.Get()
	if e == nil {
		s.report(Issue{
			Kind:      IssueUninitializedLock,
			Key:       key,
			Goroutine: uint64(me),
			Message:   "runlock of a key that was never locked",
			Stack:     captureStack(4),
		})
		return
	}
	if e.rwLock() == nil {
		s.report(Issue{
			Kind:      IssueAlgorithmMismatch,
			Key:       key,
			Goroutine: uint64(me),
			Message:   "runlock of a key mapped to an exclusive lock",
			Stack:     captureStack(4),
		})
		return
	}
	if !s.dbg.dropReader(key, me) {
		s.report(Issue{
			Kind:      IssueRUnlockNotReader,
			Key:       key,
			Goroutine: uint64(me),
			Owner:     e.owner.Load(),
			Message:   "runlock by a goroutine that holds no read share",
			Stack:     captureStack(4),
		})
		return
	}
	e.rwLock().RUnlock()
}

// CheckDeadlocks scans the wait-for graph once and reports every new cycle
// among goroutines blocked longer than DeadlockWaitThreshold. It returns
// the number of (previously unreported) deadlocks found. The background
// watchdog calls this periodically; tests and tools may call it directly.
func (s *Service) CheckDeadlocks() int {
	if s.dbg == nil {
		return 0
	}
	d := s.dbg
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()

	found := 0
	for g, rec := range d.waiting {
		if now.Sub(rec.since) < s.opts.DeadlockWaitThreshold {
			continue
		}
		cycle := s.walkCycleLocked(g, rec.key)
		if cycle == nil {
			continue
		}
		sig := cycleSignature(cycle)
		if d.reportedCycles[sig] {
			continue
		}
		d.reportedCycles[sig] = true
		found++
		// Attach the backtraces of every participant.
		var stack strings.Builder
		for _, edge := range cycle[:len(cycle)-1] {
			if wr := d.waiting[gid.ID(edge.Goroutine)]; wr != nil {
				fmt.Fprintf(&stack, "goroutine %d blocked at:\n%s", edge.Goroutine, formatPCs(wr.pcs))
			}
		}
		s.report(Issue{
			Kind:      IssueDeadlock,
			Key:       rec.key,
			Goroutine: uint64(g),
			Message:   "cycle detected",
			Cycle:     cycle,
			Stack:     stack.String(),
		})
	}
	return found
}

// walkCycleLocked follows holder→waits-for edges from goroutine start. It
// returns the closed cycle ([start..., start]) or nil. Caller holds d.mu.
//
// An exclusive (or write-held) key has one holder, its owner; a read-held
// key has every current read-share holder — a writer blocked on it waits
// for all of them, so the walk is a DFS over holders rather than the
// single-owner chain it was before glsrw. Each branch copies its edge
// prefix (blocked-goroutine graphs are tiny; clarity beats clever sharing).
func (s *Service) walkCycleLocked(start gid.ID, startKey uint64) []WaitEdge {
	d := s.dbg
	seen := map[gid.ID]bool{start: true}
	var dfs func(key uint64, edges []WaitEdge) []WaitEdge
	dfs = func(key uint64, edges []WaitEdge) []WaitEdge {
		for _, holder := range s.holdersLocked(key) {
			if holder == start {
				// Close the cycle with a repeat of the first edge, matching
				// the paper's report format.
				return append(append([]WaitEdge{}, edges...), edges[0])
			}
			if seen[holder] {
				continue // a cycle not involving start; its members report it
			}
			rec := d.waiting[holder]
			if rec == nil {
				continue // holder is running, not waiting: no deadlock via this path
			}
			seen[holder] = true
			branch := append(append([]WaitEdge{}, edges...),
				WaitEdge{Goroutine: uint64(holder), Key: rec.key})
			if cycle := dfs(rec.key, branch); cycle != nil {
				return cycle
			}
		}
		return nil
	}
	return dfs(startKey, []WaitEdge{{Goroutine: uint64(start), Key: startKey}})
}

// holdersLocked lists the goroutines currently holding key: the write
// owner when one is recorded, else every read-share holder. Caller holds
// d.mu.
func (s *Service) holdersLocked(key uint64) []gid.ID {
	e := s.table.Get(key)
	if e == nil {
		return nil
	}
	if owner := gid.ID(e.owner.Load()); owner != 0 {
		return []gid.ID{owner}
	}
	rs := s.dbg.readers[key]
	if len(rs) == 0 {
		return nil
	}
	out := make([]gid.ID, 0, len(rs))
	for g := range rs {
		out = append(out, g)
	}
	return out
}

// cycleSignature canonically names a cycle for dedup: sorted goroutine ids.
func cycleSignature(cycle []WaitEdge) string {
	ids := make([]uint64, 0, len(cycle))
	for _, e := range cycle[:len(cycle)-1] {
		ids = append(ids, e.Goroutine)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(id)
	}
	return strings.Join(parts, ",")
}
