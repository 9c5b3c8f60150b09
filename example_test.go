package gls_test

import (
	"fmt"
	"time"

	"gls"
	"gls/locks"
	"gls/telemetry"
)

// The reader-writer quickstart: a key becomes a reader-writer key on its
// first use through the RW surface, the exclusive entry points then operate
// on the same lock's write side, and read shares coexist. The lock behind
// the key is the adaptive glsrw/glsfair default — it starts two cache lines
// and admits readers striped, phase-fair or write-preferring (blocking) as
// the workload demands (DESIGN.md §§9–10).
func ExampleService_RLock() {
	svc := gls.New(gls.Options{})
	defer svc.Close()

	const account = 42
	svc.InitRWLock(account) // fix the species up front (pthread_rwlock_init)

	svc.Lock(account) // the exclusive surface is the RW lock's write side
	balance := 100
	svc.Unlock(account)

	svc.RLock(account)
	svc.RLock(account) // a second share while the first is held: shares coexist
	fmt.Println("balance:", balance)
	svc.RUnlock(account)
	svc.RUnlock(account)
	fmt.Println("rw key:", svc.IsRWKey(account))
	// Output:
	// balance: 100
	// rw key: true
}

// A key's species — exclusive or reader-writer — is fixed at first use.
// Using the read surface on a key that was introduced as exclusive is the
// Go analogue of handing a pthread_mutex_t to pthread_rwlock_rdlock: GLS
// turns that undefined behavior into a panic (and, in debug mode, a
// reported issue first). InitRWLock pins the species before any exclusive
// entry point can auto-create the key as exclusive.
func ExampleService_InitRWLock() {
	svc := gls.New(gls.Options{})
	defer svc.Close()

	svc.Lock(1) // key 1 auto-created as an exclusive key
	svc.Unlock(1)
	func() {
		defer func() { fmt.Println("species mismatch recovered:", recover() != nil) }()
		svc.RLock(1) // RW use of an exclusive key panics
	}()

	svc.InitRWLock(2) // key 2's species is reader-writer from the start
	svc.RLock(2)
	svc.RUnlock(2)
	fmt.Println("rw key:", svc.IsRWKey(2))
	// Output:
	// species mismatch recovered: true
	// rw key: true
}

// Hot loops go through a per-goroutine Handle, the paper's §4.1 lock
// cache: the handle remembers the last (key, lock) pair per side and skips
// the table lookup, including for read shares.
func ExampleService_NewHandle() {
	svc := gls.New(gls.Options{})
	defer svc.Close()

	h := svc.NewHandle()
	counter := 0
	for i := 0; i < 1000; i++ {
		h.Lock(7) // repeated locks of one key hit the handle cache
		counter++
		h.Unlock(7)
	}

	svc.InitRWLock(8)
	reads := 0
	for i := 0; i < 1000; i++ {
		h.RLock(8) // handles cache the read side in the same slot
		reads++
		h.RUnlock(8)
	}
	fmt.Println(counter, reads)
	// Output: 1000 1000
}

// Always-on telemetry: hand the service a glstat registry and every lock it
// creates accumulates per-lock statistics. Snapshot freezes a view,
// Diff(prev) reduces two views to the interval between them — the
// lock_stat-style workflow for "what got hot in the last 30 seconds?".
func Example_telemetrySnapshotDiff() {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 1})
	svc := gls.New(gls.Options{Telemetry: reg})
	defer svc.Close()

	const key = 9
	reg.SetLabel(key, "inventory")
	for i := 0; i < 5; i++ {
		svc.Lock(key)
		svc.Unlock(key)
	}
	before := reg.Snapshot()

	for i := 0; i < 3; i++ {
		svc.Lock(key)
		svc.Unlock(key)
	}
	interval := reg.Snapshot().Diff(before)

	fmt.Println(before.Lock(key).Name(), before.Lock(key).Acquisitions)
	fmt.Println("interval:", interval.Lock(key).Acquisitions)
	// Output:
	// inventory 5
	// interval: 3
}

// Debug mode's deadlock report (§4.2): the background watchdog — or an
// explicit CheckDeadlocks call, as here — walks the wait-for graph over
// blocked goroutines and reports every cycle as an Issue through OnIssue.
// The two goroutines below take keys 1 and 2 in opposite orders through the
// blocking mutex algorithm, so both park and the cycle is certain.
func Example_debugDeadlockReport() {
	issues := make(chan gls.Issue, 8)
	svc := gls.New(gls.Options{
		Debug:                 true,
		DeadlockWaitThreshold: 10 * time.Millisecond,
		OnIssue:               func(i gls.Issue) { issues <- i },
	})
	// No Close: the deadlocked goroutines never release their locks — that
	// is the point of the example.

	const a, b = 1, 2
	aHeld, bHeld := make(chan struct{}), make(chan struct{})
	go func() {
		svc.LockWith(locks.Mutex, a)
		close(aHeld)
		<-bHeld
		svc.LockWith(locks.Mutex, b) // blocks forever
	}()
	go func() {
		svc.LockWith(locks.Mutex, b)
		close(bHeld)
		<-aHeld
		svc.LockWith(locks.Mutex, a) // blocks forever
	}()
	<-aHeld
	<-bHeld

	for svc.CheckDeadlocks() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	issue := <-issues
	fmt.Println(issue.Kind)
	// Output: Deadlock
}
