package gls

import (
	"fmt"
	"os"
	"reflect"
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
	Stack     string     // formatted backtrace, frame #0 the gls entry point called
	Cycle     []WaitEdge // deadlocks only: the wait-for cycle, closed

	op issueOp // the operation that raised the issue
}

// issueOp is the operation an issue was raised in, the verb of its report.
type issueOp uint8

const (
	opLock issueOp = iota
	opUnlock
	opFree
)

func (o issueOp) String() string { return [...]string{"LOCK", "UNLOCK", "FREE"}[o] }

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
		fmt.Fprintf(&b, "[GLS]WARNING> %s %#x - %s", i.op, i.Key, i.Kind)
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

// debugState is the §4.2 bookkeeping: who waits on what, who owns what,
// and the watchdog.
type debugState struct {
	mu               sync.Mutex
	waiting          map[gid.ID]*waitRecord
	initialized      map[uint64]bool
	mismatchReported map[uint64]bool
	reportedCycles   map[string]bool

	// owners maps each exclusively held key to its holder: the owner
	// checks of lock and unlock, IssueFreeHeld and the single-holder edges
	// of the deadlock walk all read it. It lives here rather than in the
	// entry so a default key stays one line with or without Debug.
	owners map[uint64]gid.ID

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
		owners:           make(map[uint64]gid.ID),
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

// forget drops everything recorded about key, which is being freed, and
// returns the owner it held then (0 for none).
func (d *debugState) forget(key uint64) gid.ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	owner := d.owners[key]
	delete(d.owners, key)
	delete(d.initialized, key)
	delete(d.mismatchReported, key)
	delete(d.readers, key)
	return owner
}

// ownerOf returns key's exclusive holder, 0 when there is none.
func (d *debugState) ownerOf(key uint64) gid.ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.owners[key]
}

// setOwner records g as key's exclusive holder.
func (d *debugState) setOwner(key uint64, g gid.ID) {
	d.mu.Lock()
	d.owners[key] = g
	d.mu.Unlock()
}

// release returns key's exclusive holder and, when that is g, clears it:
// g's unlock checks and the hand-back are one step.
func (d *debugState) release(key uint64, g gid.ID) gid.ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	owner := d.owners[key]
	if owner == g {
		delete(d.owners, key)
	}
	return owner
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
	rec := &waitRecord{key: key, since: time.Now(), pcs: callers()}
	d.mu.Lock()
	d.waiting[g] = rec
	d.mu.Unlock()
}

func (d *debugState) clearWaiting(g gid.ID) {
	d.mu.Lock()
	delete(d.waiting, g)
	d.mu.Unlock()
}

// flag reports an issue that the calling goroutine raised in operation op
// on key — every issue but a deadlock is built here — with owner as the
// lock's holder (0 for none) and a backtrace from the entry point called.
func (s *Service) flag(op issueOp, kind IssueKind, key uint64, owner gid.ID, msg string) {
	s.report(Issue{
		Kind:      kind,
		Key:       key,
		Goroutine: uint64(gid.Get()),
		Owner:     uint64(owner),
		Message:   msg,
		Stack:     formatPCs(callers()),
		op:        op,
	})
}

// report delivers an issue.
func (s *Service) report(iss Issue) {
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
	fmt.Fprint(os.Stderr, iss.String())
}

// callers records the calling goroutine's stack for a report. Where it
// starts does not matter: formatPCs drops the frames beneath the entry
// point by name.
func callers() []uintptr {
	pcs := make([]uintptr, 16)
	return pcs[:runtime.Callers(1, pcs)]
}

// pkgPrefix begins the name of every function of this package.
var pkgPrefix = reflect.TypeOf(Issue{}).PkgPath() + "."

// formatPCs formats a recorded stack from its innermost exported function
// or method of this package — the entry point the program called, Lock,
// Unlock, Free or another — so frame #0 is that entry point however many
// unexported service frames lie beneath it.
func formatPCs(pcs []uintptr) string {
	var b strings.Builder
	frames, i := runtime.CallersFrames(pcs), 0
	for more := len(pcs) > 0; more && i < 8; {
		var f runtime.Frame
		f, more = frames.Next()
		if i == 0 && !entryPoint(f.Function) {
			continue
		}
		fmt.Fprintf(&b, "#%d %s:%d (%s)\n", i, f.File, f.Line, f.Function)
		i++
	}
	return b.String()
}

// entryPoint reports whether fn, a frame's function name, is an exported
// function or an exported type's exported method of this package: "Free"
// and "(*Service).Lock" are, "(*Service).acquire" and a closure are not.
func entryPoint(fn string) bool {
	name, ok := strings.CutPrefix(fn, pkgPrefix)
	if !ok {
		return false
	}
	parts := strings.Split(name, ".")
	for _, p := range parts {
		p = strings.TrimPrefix(p, "(*")
		if p == "" || p[0] < 'A' || p[0] > 'Z' {
			return false
		}
	}
	return len(parts) <= 2
}

// debugPreLock runs the acquisition-time checks on key's entry e.
func (s *Service) debugPreLock(me gid.ID, e *entry, key uint64, created bool, requested locks.Algorithm) {
	if created && s.opts.StrictInit && !s.dbg.isInitialized(key) {
		s.flag(opLock, IssueUninitializedLock, key, 0, "lock of a key never initialized (StrictInit)")
	}
	if !created && e.algo() != requested {
		s.dbg.mu.Lock()
		dup := s.dbg.mismatchReported[key]
		if !dup {
			s.dbg.mismatchReported[key] = true
		}
		s.dbg.mu.Unlock()
		if !dup {
			s.flag(opLock, IssueAlgorithmMismatch, key, 0, fmt.Sprintf("lock requested as %s but key is mapped to %s",
				algoName(requested), algoName(e.algo())))
		}
	}
	if s.dbg.ownerOf(key) == me {
		s.flag(opLock, IssueDoubleLock, key, me, "goroutine already owns this lock")
	}
	if e.rwLock() != nil && s.dbg.holdsReadShare(key, me) {
		// RLock→Lock on one key: the write acquisition drains all readers,
		// this caller included — it waits for itself (§4.2's deadlock
		// family, caught before it blocks rather than by the watchdog).
		s.flag(opLock, IssueUpgradeDeadlock, key, 0, "write lock requested while holding a read share (RLock→Lock upgrade deadlocks)")
	}
}

// debugAcquire acquires e's lock with owner/waiting bookkeeping: a try,
// then — when the caller waits — the waiting record, the wait (which c may
// end) and the record's removal, and the owner recorded only on a grant.
// Only the contended path pays the wait-record cost. Profile and telemetry
// statistics need no handling here: they are recorded inside the lock
// object itself (the TryLock probe and the Lock both land in the same
// per-lock accumulator, and failed probes are netted out as TryLock
// failures). One visible consequence: with Debug and telemetry combined,
// the raw arrivals/try-fail columns include the probes — a contended
// debug-mode Lock reads as two arrivals and one TryLock failure — while
// acquisitions stay exact. Debug mode is a diagnostic configuration; its
// reports describe what the service did on the lock, probes included.
func (s *Service) debugAcquire(me gid.ID, e *entry, key uint64, wait bool, c *locks.Cancel) bool {
	if !e.exclusive().TryLock() {
		if !wait {
			return false
		}
		s.dbg.setWaiting(me, key)
		ok := locks.LockWithCancel(e.exclusive(), c)
		s.dbg.clearWaiting(me)
		if !ok {
			return false
		}
	}
	s.dbg.setOwner(key, me)
	return true
}

// debugUnlock releases key's lock after the §4.2 release checks. Faulty
// releases are reported and *not* forwarded to the low-level lock, so a
// buggy program keeps a consistent lock state (unlocking a free ticket lock
// would corrupt it).
func (s *Service) debugUnlock(key uint64, e *entry) {
	if e == nil {
		s.flag(opUnlock, IssueUninitializedLock, key, 0, "unlock of a key that was never locked")
		return
	}
	me := gid.Get()
	switch owner := s.dbg.release(key, me); {
	case owner == 0:
		s.flag(opUnlock, IssueUnlockFree, key, 0, "unlock of an already-free lock")
	case owner != me:
		s.flag(opUnlock, IssueUnlockWrongOwner, key, owner, fmt.Sprintf("unlock by goroutine %d but owner is %d", me, owner))
	default:
		e.exclusive().Unlock()
	}
}

// debugPreRLock runs the read-acquisition checks: StrictInit and the
// Lock→RLock half of the upgrade deadlock (the write holder read-locking its
// own key blocks on its own writer flag).
func (s *Service) debugPreRLock(me gid.ID, key uint64, created bool) {
	if created && s.opts.StrictInit && !s.dbg.isInitialized(key) {
		s.flag(opLock, IssueUninitializedLock, key, 0, "rlock of a key never initialized (StrictInit)")
	}
	if s.dbg.ownerOf(key) == me {
		s.flag(opLock, IssueUpgradeDeadlock, key, me, "read share requested while holding the write lock (Lock→RLock self-blocks)")
	}
}

// debugRAcquire is debugAcquire's read-side twin: the read checks, a try,
// the waiting record around a wait, and the share recorded only when taken.
func (s *Service) debugRAcquire(e *entry, key uint64, created, wait bool) bool {
	me := gid.Get()
	s.debugPreRLock(me, key, created)
	if !e.rwLock().TryRLock() {
		if !wait {
			return false
		}
		s.dbg.setWaiting(me, key)
		e.rwLock().RLock()
		s.dbg.clearWaiting(me)
	}
	s.dbg.addReader(key, me)
	return true
}

// debugRUnlock releases a read share after the release checks. Faulty
// releases are reported and not forwarded, mirroring debugUnlock: an
// RUnlock from a non-reader would corrupt the reader count under every
// implementation in the family.
func (s *Service) debugRUnlock(key uint64, e *entry) {
	switch {
	case e == nil:
		s.flag(opUnlock, IssueUninitializedLock, key, 0, "runlock of a key that was never locked")
	case e.rwLock() == nil:
		s.flag(opUnlock, IssueAlgorithmMismatch, key, 0, "runlock of a key mapped to an exclusive lock")
	case !s.dbg.dropReader(key, gid.Get()):
		s.flag(opUnlock, IssueRUnlockNotReader, key, s.dbg.ownerOf(key), "runlock by a goroutine that holds no read share")
	default:
		e.rwLock().RUnlock()
	}
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
	if owner := s.dbg.owners[key]; owner != 0 {
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
