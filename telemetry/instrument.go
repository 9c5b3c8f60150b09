package telemetry

import (
	"gls/internal/stripe"
	"gls/locks"
)

// instrumentedLock wraps a fixed-algorithm lock with telemetry hooks. GLK
// locks do not use this wrapper — glk.Lock calls the hooks natively (set
// glk.Config.Stats), which lets it also report mode transitions and detect
// contention inside its retry loop — but the explicit Table-1 algorithms
// (gls_A_lock) are plain locks.Lock values, so the service wraps them at
// entry construction instead. Either way the instrumentation decision is
// made once, when the lock is built: the code that locks and unlocks never
// branches on whether telemetry is on.
type instrumentedLock struct {
	inner locks.Lock
	st    *LockStats
}

// Instrument returns l with its acquisitions, contention, and sampled
// latencies recorded into st. st must not be nil.
func Instrument(l locks.Lock, st *LockStats) locks.Lock {
	return &instrumentedLock{inner: l, st: st}
}

// Lock is LockCancel with a Cancel that never fires, which
// locks.LockWithCancel turns into the inner lock's own Lock.
func (w *instrumentedLock) Lock() { w.LockCancel(nil) }

func (w *instrumentedLock) TryLock() bool {
	tok := stripe.Self()
	a := w.st.Arrive(tok)
	if !w.inner.TryLock() {
		a.Failed()
		return false
	}
	a.Acquired(false)
	return true
}

// LockCancel is the wrapper's one wait body. Being cancellable itself, it
// lets locks.LockWithCancel on an instrumented lock reach the inner
// algorithm's native abort path instead of polling the wrapper's TryLock —
// which would count one arrival per poll. One Arrive, then exactly one of
// Acquired or Aborted.
func (w *instrumentedLock) LockCancel(c *locks.Cancel) bool {
	tok := stripe.Self()
	a := w.st.Arrive(tok)
	// Probe before waiting: a failed TryLock is the "found it held"
	// definition of a contended acquisition, the same one glk uses.
	if w.inner.TryLock() {
		a.Acquired(false)
		return true
	}
	if !locks.LockWithCancel(w.inner, c) {
		a.Aborted(c.TimedOut())
		return false
	}
	a.Acquired(true)
	return true
}

func (w *instrumentedLock) Unlock() {
	// Record while still holding: the hold timer is holder-only state.
	// stripe.Self() may differ from the token used at Lock (different call
	// depth); presence still sums correctly across lanes.
	w.st.Release(stripe.Self())
	w.inner.Unlock()
}

// instrumentedRWLock wraps an explicit reader-writer lock with telemetry
// hooks, the RW counterpart of instrumentedLock: the write side is an
// instrumentedLock over the same lock, flowing through the exclusive lanes,
// and the read side flows through the rw lane block. glk.RWLock does not
// use this wrapper — it calls the hooks natively, which lets it also
// report its inline↔striped mode transitions and writer drain time.
type instrumentedRWLock struct {
	instrumentedLock // the write side, over rw
	rw               locks.RWLock
	// writeLocked reports whether a writer currently holds rw, when the
	// lock can say (every lock in the locks package can); nil otherwise.
	// It classifies blocked read acquisitions: a TryRLock failure alone is
	// not proof of a writer — RWWritePref's try also fails on a busy count
	// guard (reader↔reader), and RWTTAS's on a reader↔reader CAS race —
	// and counting those as "behind a writer" would invent writer pressure
	// on writer-free workloads.
	writeLocked func() bool
}

// writerReporter is the introspection the wrapper uses to classify reader
// contention; all locks in the locks package implement it.
type writerReporter interface {
	WriteLocked() bool
}

// InstrumentRW returns l with both sides recorded into st. st must have
// been EnableRW'd (Registry callers: pass rw=true to the registration or
// call EnableRW before first use).
func InstrumentRW(l locks.RWLock, st *LockStats) locks.RWLock {
	st.EnableRW()
	w := &instrumentedRWLock{instrumentedLock: instrumentedLock{inner: l, st: st}, rw: l}
	if wr, ok := l.(writerReporter); ok {
		w.writeLocked = wr.WriteLocked
	}
	return w
}

func (w *instrumentedRWLock) RLock() {
	tok := stripe.Self()
	a := w.st.RArrive(tok)
	// Try-first probe like the write side, but a failed TryRLock is only
	// evidence, not proof, of a writer (see the writeLocked field): ask
	// the lock whether a writer is actually active before blocking. With
	// no introspection available, fall back to trusting the probe.
	if w.rw.TryRLock() {
		a.RAcquired(false)
		return
	}
	contended := w.writeLocked == nil || w.writeLocked()
	w.rw.RLock()
	a.RAcquired(contended)
}

func (w *instrumentedRWLock) TryRLock() bool {
	tok := stripe.Self()
	a := w.st.RArrive(tok)
	if !w.rw.TryRLock() {
		a.RFailed()
		return false
	}
	a.RAcquired(false)
	return true
}

func (w *instrumentedRWLock) RUnlock() {
	w.st.RRelease(stripe.Self())
	w.rw.RUnlock()
}
