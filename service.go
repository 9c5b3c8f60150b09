package gls

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"
	"unsafe"

	"gls/glk"
	"gls/internal/clht"
	"gls/internal/gid"
	"gls/internal/pad"
	"gls/locks"
	"gls/telemetry"
)

// algoGLK is the internal algorithm tag for GLK-managed entries. It is
// deliberately not a valid locks.Algorithm: GLK is the default, not one of
// the explicit Table-1 algorithms.
const algoGLK locks.Algorithm = 0

// Options configures a Service. The zero value is a production
// configuration: GLK locks, no debugging, no profiling.
type Options struct {
	// SizeHint is the expected number of distinct lock keys.
	SizeHint int

	// GLK tunes the adaptive locks created by Lock/TryLock. nil selects
	// glk defaults (which include the shared multiprogramming monitor).
	GLK *glk.Config

	// Debug enables the §4.2 checks: uninitialized locks, double locking,
	// releasing a free lock, releasing a lock with the wrong owner, and
	// background deadlock detection. Debug mode costs roughly an order of
	// magnitude per operation (goroutine-id recovery plus bookkeeping); the
	// paper reports up to 4× for its C implementation.
	Debug bool

	// StrictInit requires keys to be introduced with InitLock before use,
	// mirroring programs that overload pthread_mutex_init. Only meaningful
	// with Debug: locking an unknown key then reports an uninitialized-lock
	// issue (the lock still works — GLS auto-creates it).
	StrictInit bool

	// OnIssue receives every detected issue. nil writes the paper-style
	// "[GLS]WARNING>" report to Stderr. Callbacks must be fast and must not
	// call back into the Service.
	OnIssue func(Issue)

	// DeadlockCheckInterval is how often the background detector scans for
	// wait cycles (default 250ms; the check itself is cheap and only runs
	// over currently-blocked goroutines).
	DeadlockCheckInterval time.Duration

	// DeadlockWaitThreshold is how long a goroutine must be blocked before
	// the detector considers it (paper: "more than a second"; default 1s).
	DeadlockWaitThreshold time.Duration

	// Profile enables per-lock statistics (§4.3): average queuing,
	// acquisition latency, and critical-section duration. Read the results
	// with ProfileReport or ProfileStats.
	//
	// Profile is a fidelity preset over the telemetry subsystem: with no
	// Telemetry registry supplied, it creates a private one that times
	// every acquisition (sample period 1). Unlike the paper's profile
	// mode, it no longer forces the service off its fast path — the
	// instrumentation lives inside the lock objects.
	Profile bool

	// Telemetry, if non-nil, is the glstat registry this service feeds:
	// every lock the service creates is registered there and accumulates
	// always-on statistics (acquisitions, contention, sampled latencies
	// and queue lengths, GLK mode transitions — see package telemetry).
	// The hooks are wired into each lock object at entry construction, so
	// services without telemetry run the exact zero-options fast path with
	// no per-operation branches. Use telemetry.Default() for the
	// process-wide registry, or a private Registry to scope or tune
	// sampling.
	Telemetry *telemetry.Registry

	// Stderr overrides the default issue report destination (tests).
	Stderr io.Writer

	// GLKRW tunes the adaptive reader-writer locks created by
	// RLock/TryRLock (the glsrw default). Every such lock is born in the
	// striped-reader mode with its reader counter in one inline cell,
	// stripes the counter on observed reader concurrency and folds it back
	// after four write periods no reader came in, moves to phase-fair
	// admission on observed reader starvation or, once striped, fewer than
	// 16 reads per write, and to the blocking write-preferring mode under
	// multiprogramming (glsfair).
	// What can be tuned — SamplePeriod, StarveBackouts, FairPeriods,
	// Monitor — lives on glk.RWConfig; the service sets Stats itself. nil
	// selects the defaults.
	GLKRW *glk.RWConfig
}

// An entry's flag word says which of the two layouts a table slot points
// at and whether it is still mapped. It sits where glk.Lock keeps the word
// it leaves to its embedder, in both layouts, so every look-up learns both
// facts from the one line it is about to use. The zero word is a live
// default key.
const (
	// entryBoxed: the object is a boxedEntry, its lock behind an interface.
	// Set before the entry is published and never changed.
	entryBoxed uint32 = 1 << iota
	// entryDead is set, and never cleared, when the entry is taken out of
	// the table: retire is its only writer. A Handle trusts its cached
	// entry exactly while this is clear, so a Free invalidates the handles
	// caching that key and no others.
	entryDead
)

// entry is what a table slot points at, and for a key created through the
// default surface — GLK, exclusive: Lock, TryLock, InitLock, LockMany, a
// Handle, Pin — it is the lock itself: one 128-byte object whose first line
// is the glk.Lock (mode word, sampling clock, ticket words, the pointers to
// what a contended lock builds later, and the flag word in Aux) and whose
// second holds the words only a holder, a pinner or the debugger writes.
// A look-up therefore ends on the line the acquisition is about to write:
// bucket → lock, with a call to a concrete *glk.Lock and no interface in
// between, and the dead mark a Handle hit tests is on that line too. The
// two lines never mix their writers — §3.2's false-sharing rule, applied to
// the table values — and the entry is whole lines, which the allocator's
// 128-byte size class also aligns (layout_test.go pins all of it).
//
// Every other species — an explicit algorithm (LockWith, PinWith), a
// reader-writer key, any of them wrapped for telemetry — is a boxedEntry
// behind the same pointer type: same size, same second line, same flag
// word, and a first line that holds the lock's interfaces instead of a
// lock. Nothing but the flag word may be read through lk until it says
// which one this is; the methods below are the only code that looks.
type entry struct {
	lk glk.Lock
	entryStats
	_ [(pad.CacheLineSize - unsafe.Sizeof(entryStats{})%pad.CacheLineSize) % pad.CacheLineSize]byte
}

// boxedHead is the first line of a boxedEntry up to the flag word: written
// once at creation, then only read (by every operation that resolves the
// key).
type boxedHead struct {
	lock locks.Lock

	// rw is non-nil exactly when the key was introduced through the
	// reader-writer surface (RLock/InitRWLock); lock then aliases the same
	// object's write side, so the exclusive entry points keep working on
	// an RW key (Lock == write-lock) with zero extra branches. rwalgo is
	// algoGLKRW or the explicit RW algorithm. A key's species — exclusive
	// or RW — is decided at first use, like its algorithm.
	rw     locks.RWLock
	algo   locks.Algorithm // the explicit algorithm of an exclusive key
	rwalgo locks.RWAlgorithm
}

// auxOffset is where the flag word sits in either layout.
const auxOffset = unsafe.Offsetof(entry{}.lk.Aux)

// boxedEntry is the entry of a key whose lock is not the inline GLK lock.
// The pads put flags at auxOffset and the second line where entry has it;
// a head that outgrows its room does not compile.
type boxedEntry struct {
	boxedHead
	_     [auxOffset - unsafe.Sizeof(boxedHead{})]byte
	flags atomic.Uint32
	_     [pad.CacheLineSize - auxOffset - unsafe.Sizeof(atomic.Uint32{})]byte
	entryStats
	_ [(pad.CacheLineSize - unsafe.Sizeof(entryStats{})%pad.CacheLineSize) % pad.CacheLineSize]byte
}

// Both directions must be non-negative: the two layouts are the same size
// and keep their second line at the same offset.
var (
	_ [unsafe.Sizeof(entry{}) - unsafe.Sizeof(boxedEntry{})]byte
	_ [unsafe.Sizeof(boxedEntry{}) - unsafe.Sizeof(entry{})]byte
	_ [unsafe.Offsetof(entry{}.entryStats) - unsafe.Offsetof(boxedEntry{}.entryStats)]byte
	_ [unsafe.Offsetof(boxedEntry{}.entryStats) - unsafe.Offsetof(entry{}.entryStats)]byte
)

// entryStats is the second line of either layout: the key, the debug owner
// word and the key-lifetime words behind Pin (pin.go).
type entryStats struct {
	key uint64

	// owner is the goroutine currently holding the lock (0 = free).
	// Maintained only in debug mode.
	owner atomic.Uint64

	// pins counts outstanding Pins (pinsDead once the last is gone and the
	// entry is being freed); seq is the last value Pin.NextSeq handed out,
	// written only by the lock's holder. Both stay 0 for keys nobody pins.
	pins atomic.Int64
	seq  atomic.Uint64
}

// asEntry is the table's view of a boxed entry.
func (b *boxedEntry) asEntry() *entry { return (*entry)(unsafe.Pointer(b)) }

// boxed is e's real layout once its flag word has said entryBoxed.
func (e *entry) boxed() *boxedEntry { return (*boxedEntry)(unsafe.Pointer(e)) }

// inline reports whether e is a default key, whose lock is e.lk.
func (e *entry) inline() bool { return e.lk.Aux.Load()&entryBoxed == 0 }

// dead reports whether e has been retired.
func (e *entry) dead() bool { return e.lk.Aux.Load()&entryDead != 0 }

// markDead retires e. The species bit beside the mark never changes, so
// racing retirers store the same word.
func (e *entry) markDead() { e.lk.Aux.Store(e.lk.Aux.Load() | entryDead) }

// exclusive returns whichever lock e holds as an interface — for an RW key
// its write side. It is for the paths where an indirect call is noise: the
// debugger, batches, pins, bounded waits, first uses. The six operations
// whose whole cost is the look-up (Lock, TryLock and Unlock, here and on
// Handle) test inline themselves and call e.lk directly.
func (e *entry) exclusive() locks.Lock {
	if e.inline() {
		return &e.lk
	}
	return e.boxed().lock
}

// rwLock returns e's reader-writer lock, nil when the key is exclusive.
func (e *entry) rwLock() locks.RWLock {
	if e.inline() {
		return nil
	}
	return e.boxed().rw
}

// algo returns the algorithm tag of e's exclusive side: algoGLK for a
// default key (and for an RW key, which has none).
func (e *entry) algo() locks.Algorithm {
	if e.inline() {
		return algoGLK
	}
	return e.boxed().algo
}

// EntryBytes is the size of one table entry, in either layout. For a key
// created through the default surface that is the whole key — entry and
// lock are one object, and stay so until the lock is contended; for any
// other key it is the cost on top of the lock object the entry points at.
// Exported for footprint accounting (glsbench -cardinality); a key's share
// of its clht bucket is extra.
const EntryBytes = unsafe.Sizeof(entry{})

// Service is one GLS instance: a concurrent key→lock table plus the optional
// debug and profile machinery. Create with New; a Service must not be
// copied.
//
// The struct is sectioned like the entries it maps: what New writes and
// every operation afterwards only reads, then the words a create's
// counterpart writes, then the rare ones — each section whole cache lines,
// so a Free or an Unpin never dirties the line a look-up loads its table
// pointer from (TestServiceLayout).
type Service struct {
	serviceConfig
	_ [(pad.CacheLineSize - unsafe.Sizeof(serviceConfig{})%pad.CacheLineSize) % pad.CacheLineSize]byte
	serviceChurn
	_ [(pad.CacheLineSize - unsafe.Sizeof(serviceChurn{})%pad.CacheLineSize) % pad.CacheLineSize]byte
	serviceRare
	_ [(pad.CacheLineSize - unsafe.Sizeof(serviceRare{})%pad.CacheLineSize) % pad.CacheLineSize]byte
}

// serviceConfig is written by New and read-only afterwards. The words every
// look-up loads come first, so they share the struct's first line.
type serviceConfig struct {
	// table maps every key of the service to its entry — the paper's one
	// CLHT (§4.1).
	table *clht.Table[entry]

	// fast is precomputed at New: no debug. The hot entry points check
	// this one bool instead of re-deriving the service's mode from the
	// options on every call, so the non-debug path is a wait-free table
	// Get plus the lock call and nothing else. (Profile/telemetry no
	// longer force the slow path: their instrumentation is resolved into
	// the lock objects when entries are built.)
	fast bool

	// glkSet is Options.GLK validated once, shared by every default key's
	// lock.
	glkSet *glk.Settings

	dbg *debugState // nil unless Options.Debug

	// tele is the telemetry registry the service's locks feed, nil when
	// telemetry (and profiling) are off. It is consulted only at entry
	// construction and in Free — never on the lock/unlock paths, which see
	// telemetry solely through the hooks compiled into each lock object.
	tele *telemetry.Registry

	opts Options
}

// serviceChurn is what taking keys out of the table writes: once per Free,
// twice per freeing Unpin.
type serviceChurn struct {
	// frees counts the mappings Free and Unpin removed. With table.Len it
	// also gives the entries ever built (ShardStats).
	frees atomic.Uint64

	// seqFloor is the largest Pin sequence a freed entry ended on. Every
	// NextSeq exceeds it, so a key freed and re-created keeps rising — one
	// word per service, not a record per key ever used.
	seqFloor atomic.Uint64
}

// serviceRare is written by issue reports and Close.
type serviceRare struct {
	issueCounts [issueKindCount]atomic.Uint64
	closed      atomic.Bool
}

// ShardInfo is the table's occupancy and churn (ShardStats).
type ShardInfo struct {
	// Locks is the number of lock objects currently mapped.
	Locks int
	// Creates counts entries ever built.
	Creates uint64
	// Frees counts mappings Free and Unpin removed.
	Frees uint64
}

// ShardStats reports the table's occupancy and churn as a one-row slice —
// the shape glsmark reads. Creates is derived: every entry ever mapped is
// still mapped or was counted in Frees, so at rest it is exact; read while
// keys come and go it is a racy sum like Locks itself.
func (s *Service) ShardStats() []ShardInfo {
	frees, locks := s.frees.Load(), s.table.Len()
	return []ShardInfo{{Locks: locks, Creates: frees + uint64(locks), Frees: frees}}
}

// New returns a ready Service (gls_init).
func New(opts Options) *Service {
	if opts.DeadlockCheckInterval <= 0 {
		opts.DeadlockCheckInterval = 250 * time.Millisecond
	}
	if opts.DeadlockWaitThreshold <= 0 {
		opts.DeadlockWaitThreshold = time.Second
	}
	if opts.Stderr == nil {
		opts.Stderr = os.Stderr
	}
	tele := opts.Telemetry
	if tele == nil && opts.Profile {
		// Profile mode with no explicit registry: a private one timing
		// every acquisition, matching the paper's per-operation profiling.
		tele = telemetry.New(telemetry.Options{SamplePeriod: 1})
	}
	s := &Service{serviceConfig: serviceConfig{
		table:  clht.New[entry](opts.SizeHint),
		fast:   !opts.Debug,
		glkSet: glk.NewSettings(opts.GLK),
		tele:   tele,
		opts:   opts,
	}}
	if opts.Debug {
		s.dbg = newDebugState()
		s.dbg.start(s)
	}
	return s
}

// Telemetry returns the registry this service feeds: the one supplied in
// Options.Telemetry, the private registry Profile created, or nil when the
// service runs uninstrumented.
func (s *Service) Telemetry() *telemetry.Registry { return s.tele }

// Close stops the service's background machinery (gls_destroy). The lock
// table remains usable — Close only halts deadlock detection — but callers
// should treat the service as finished.
func (s *Service) Close() {
	if s.closed.Swap(true) {
		return
	}
	if s.dbg != nil {
		s.dbg.stopWatchdog()
	}
}

// newEntry builds a key's entry on first use: for the default algorithm
// the one object that is entry and lock, for an explicit one a boxedEntry
// pointing at it. Telemetry is resolved here, once per lock: a GLK lock
// gets the hooks compiled in via Init, any explicit algorithm is wrapped by
// telemetry.Instrument, and without a registry the locks are built bare —
// the lock/unlock paths never branch on whether telemetry is on.
func (s *Service) newEntry(key uint64, algo locks.Algorithm) func() *entry {
	return func() *entry {
		if algo == algoGLK {
			e := &entry{entryStats: entryStats{key: key}}
			var st *telemetry.LockStats
			if s.tele != nil {
				st = s.tele.Register(key, algoName(algo))
			} else if s.opts.GLK != nil {
				st = s.opts.GLK.Stats
			}
			e.lk.Init(s.glkSet, st)
			return e
		}
		l := locks.New(algo)
		if s.tele != nil {
			l = telemetry.Instrument(l, s.tele.Register(key, algoName(algo)))
		}
		return newBoxed(key, boxedHead{lock: l, algo: algo})
	}
}

// newBoxed returns the table's view of a fresh boxedEntry.
func newBoxed(key uint64, head boxedHead) *entry {
	b := &boxedEntry{boxedHead: head, entryStats: entryStats{key: key}}
	b.flags.Store(entryBoxed)
	return b.asEntry()
}

// entryFor maps a key to its lock entry, creating it with algo on first
// use. The boolean reports whether this call created the entry.
func (s *Service) entryFor(key uint64, algo locks.Algorithm) (*entry, bool) {
	if key == 0 {
		panic("gls: zero key (the paper's NULL) is not a valid lock")
	}
	return s.table.GetOrInsert(key, s.newEntry(key, algo))
}

// Lock acquires the GLK lock for key, creating it on first use (gls_lock).
//
// With zero options (no debug, no profile) this is the paper's "negligible
// overhead" path: one wait-free table Get and the lock call, with no
// instrumentation branches. Only a first use of a key (or a non-fast
// service) goes through the general path.
func (s *Service) Lock(key uint64) {
	if s.fast {
		if e := s.table.Get(key); e != nil {
			if e.inline() {
				e.lk.Lock()
			} else {
				e.boxed().lock.Lock()
			}
			return
		}
	}
	s.lockWith(algoGLK, key)
}

// LockWith acquires key's lock using the explicit algorithm a — the paper's
// gls_A_lock family. If the key is already mapped, the existing lock is
// used regardless of a (debug mode reports the mismatch).
func (s *Service) LockWith(a locks.Algorithm, key uint64) {
	if !a.Valid() {
		panic(fmt.Sprintf("gls: LockWith(%v): unknown algorithm", a))
	}
	s.lockWith(a, key)
}

func (s *Service) lockWith(a locks.Algorithm, key uint64) {
	e, created := s.entryFor(key, a)
	if s.dbg != nil {
		me := gid.Get()
		s.debugPreLock(me, e, created, a)
		s.debugLock(me, e)
		return
	}
	e.exclusive().Lock()
}

// TryLock try-acquires the GLK lock for key (gls_trylock).
func (s *Service) TryLock(key uint64) bool {
	if s.fast {
		if e := s.table.Get(key); e != nil {
			if e.inline() {
				return e.lk.TryLock()
			}
			return e.boxed().lock.TryLock()
		}
	}
	return s.tryLockWith(algoGLK, key)
}

// TryLockWith try-acquires key's lock with the explicit algorithm a.
func (s *Service) TryLockWith(a locks.Algorithm, key uint64) bool {
	if !a.Valid() {
		panic(fmt.Sprintf("gls: TryLockWith(%v): unknown algorithm", a))
	}
	return s.tryLockWith(a, key)
}

func (s *Service) tryLockWith(a locks.Algorithm, key uint64) bool {
	e, created := s.entryFor(key, a)
	if s.dbg != nil {
		me := gid.Get()
		s.debugPreLock(me, e, created, a)
		return s.debugTryLock(me, e)
	}
	return e.exclusive().TryLock()
}

// Unlock releases the lock for key (gls_unlock). Unlocking a key that was
// never locked panics in normal mode (there is nothing to release) and is
// reported as an uninitialized-lock issue in debug mode.
//
// The single wait-free Get resolves the entry for whichever mode the
// service runs in; the mode itself was decided once at New (s.fast), not
// per call.
func (s *Service) Unlock(key uint64) {
	if key == 0 {
		panic("gls: zero key (the paper's NULL) is not a valid lock")
	}
	e := s.table.Get(key)
	if s.fast {
		if e == nil {
			panic(fmt.Sprintf("gls: Unlock(%#x): key was never locked", key))
		}
		if e.inline() {
			e.lk.Unlock()
		} else {
			e.boxed().lock.Unlock()
		}
		return
	}
	s.debugUnlock(key, e)
}

// UnlockWith releases key's lock; a documents the algorithm the caller
// believes the key uses (gls_A_unlock). Debug mode reports mismatches.
func (s *Service) UnlockWith(a locks.Algorithm, key uint64) {
	if !a.Valid() {
		panic(fmt.Sprintf("gls: UnlockWith(%v): unknown algorithm", a))
	}
	if s.dbg != nil {
		if e := s.table.Get(key); e != nil && e.algo() != a {
			s.report(Issue{
				Kind:      IssueAlgorithmMismatch,
				Key:       key,
				Goroutine: uint64(gid.Get()),
				Message:   fmt.Sprintf("unlock as %v but lock is %v", a, algoName(e.algo())),
			})
		}
	}
	s.Unlock(key)
}

// InitLock pre-creates the GLK lock for key — the analogue of
// pthread_mutex_init for programs ported with Options.StrictInit.
func (s *Service) InitLock(key uint64) {
	s.initLockWith(algoGLK, key)
}

// InitLockWith pre-creates key's lock with an explicit algorithm. Passing
// an invalid algorithm panics — including the zero Algorithm, which is
// GLS's internal GLK tag, not a Table-1 algorithm; external callers reach
// the GLK default through InitLock, keeping this entry point's validation
// identical to LockWith/TryLockWith/UnlockWith.
func (s *Service) InitLockWith(a locks.Algorithm, key uint64) {
	if !a.Valid() {
		panic(fmt.Sprintf("gls: InitLockWith(%v): unknown algorithm", a))
	}
	s.initLockWith(a, key)
}

// initLockWith is the shared pre-creation path; a is algoGLK or an
// already-validated explicit algorithm.
func (s *Service) initLockWith(a locks.Algorithm, key uint64) {
	e, _ := s.entryFor(key, a)
	if s.dbg != nil {
		s.dbg.markInitialized(e.key)
	}
}

// Free removes key's lock object from the service (gls_free). Freeing a
// held lock is reported in debug mode; the mapping is removed regardless,
// matching the paper's semantics (the caller owns the key's lifecycle).
//
// Lifecycle contract: Free requires the key to be quiescent — no holder,
// no queued waiters (Lock, LockCtx, TryLockFor), no acquisition in
// flight. Free of a non-quiescent key does not fail, it silently splits
// the key in two: operations already inside the old lock object stay
// there, while every later call resolves a fresh incarnation. Concretely
// (TestFreeWithQueuedWaiterOrphans pins all three):
//
//   - a new Lock acquires the fresh object immediately, concurrent with
//     the old holder — mutual exclusion is gone;
//   - the old holder's Unlock resolves the key through the table and so
//     releases the *new* incarnation out from under its owner;
//   - a LockCtx waiter queued at the Free is stranded on the orphaned
//     object — the unlock that would wake it can no longer be addressed —
//     and only its cancellation path (which never consults the table) can
//     reclaim the goroutine.
//
// Free stays the paper's unconditional gls_free. Callers that free keys
// while other goroutines may touch them should reach the key through Pin
// and let the last Unpin free it: the pin count lives in the entry, so
// "nobody uses it" and the Free are one atomic step (glsd does this; see
// pin.go). Handles add no hazard beyond the above: the Free marks the entry
// dead and every handle caching it re-resolves (see Handle). Free of a key
// that is not mapped does nothing.
func (s *Service) Free(key uint64) {
	if key == 0 {
		return
	}
	if e := s.table.Get(key); e != nil {
		s.retire(e)
	}
}

// retire unmaps e's key; e is the entry the caller found mapped there (Free)
// or holds a dead pin count on (Unpin).
func (s *Service) retire(e *entry) {
	key := e.key
	if s.dbg != nil {
		if owner := e.owner.Load(); owner != 0 {
			s.report(Issue{
				Kind:      IssueFreeHeld,
				Key:       key,
				Goroutine: uint64(gid.Get()),
				Owner:     owner,
				Message:   "freeing a lock that is currently held",
			})
		}
		s.dbg.forget(key)
	}
	if s.tele != nil {
		// Fold the lock's counters into the registry's retired totals
		// *before* the table delete: while the old entry is still mapped,
		// a racing Lock(key) reuses it rather than registering a fresh
		// incarnation, so the unregister can never swallow a new lock's
		// stats. The price is that operations landing on the old lock
		// after this point (the delete window plus any stragglers, both
		// the caller's lifecycle hazard) go uncounted; the next
		// incarnation registers fresh and stays visible.
		s.tele.Unregister(key)
	}
	// Dead before unmapped: a handle that resolves e between the two steps
	// caches an entry it will never trust, and once the key can map a new
	// incarnation no handle still hits the old one. A racing Free may have
	// replaced e in the table since the caller looked, so whatever the
	// delete removes is marked too — every entry that has left the table
	// is dead, whichever Free removed it.
	e.markDead()
	if d := s.table.Delete(key); d != nil {
		d.markDead()
		s.frees.Add(1)
	}
}

// Locks returns the number of lock objects currently mapped.
func (s *Service) Locks() int { return s.table.Len() }

// algoName names an entry's algorithm, including the GLK default.
func algoName(a locks.Algorithm) string {
	if a == algoGLK {
		return "glk"
	}
	return a.String()
}

// GLKStats returns the GLK statistics for key's lock, if the key is mapped
// to a GLK lock. It supports the paper's transition-tracing workflow
// ("decide on a pre-determined lock algorithm that is the most suitable for
// a given lock object", §4.3).
func (s *Service) GLKStats(key uint64) (glk.Stats, bool) {
	e := s.table.Get(key)
	if e == nil || !e.inline() {
		return glk.Stats{}, false
	}
	return e.lk.Stats(), true
}
