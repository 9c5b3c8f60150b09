package locks

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// forEachRWAlgorithm runs f once per reader-writer algorithm as a subtest —
// the RW counterpart of forEachAlgorithm. glk.RWLock lives a package up and
// cannot appear here; glk/rwlock_test.go runs the same contract checks
// against it.
func forEachRWAlgorithm(t *testing.T, f func(t *testing.T, a RWAlgorithm)) {
	t.Helper()
	for _, a := range RWAlgorithms() {
		t.Run(a.String(), func(t *testing.T) { f(t, a) })
	}
}

func TestRWAlgorithmStringRoundTrip(t *testing.T) {
	for _, a := range RWAlgorithms() {
		got, err := ParseRWAlgorithm(a.String())
		if err != nil {
			t.Fatalf("ParseRWAlgorithm(%q): %v", a.String(), err)
		}
		if got != a {
			t.Fatalf("round trip %v -> %q -> %v", a, a.String(), got)
		}
	}
	if _, err := ParseRWAlgorithm("nope"); err == nil {
		t.Fatal("ParseRWAlgorithm accepted garbage")
	}
	if RWAlgorithm(0).Valid() {
		t.Fatal("zero RWAlgorithm reported valid")
	}
	if s := RWAlgorithm(99).String(); s != "RWAlgorithm(99)" {
		t.Fatalf("unknown rw algorithm String = %q", s)
	}
}

func TestNewRWPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRW(0) did not panic")
		}
	}()
	NewRW(RWAlgorithm(0))
}

// TestRWBasic exercises the plain sequential contract of every mode pair.
func TestRWBasic(t *testing.T) {
	forEachRWAlgorithm(t, func(t *testing.T, a RWAlgorithm) {
		l := NewRW(a)
		for i := 0; i < 100; i++ {
			l.Lock()
			l.Unlock()
			l.RLock()
			l.RUnlock()
		}
		l.RLock()
		l.RLock() // a second share while the first is held
		l.RUnlock()
		l.RUnlock()
	})
}

// TestRWWriterExclusion hammers a shared counter from writers while readers
// verify they never observe a torn update: the writer increments two plain
// ints inside the write lock; any reader seeing them disagree proves a
// reader overlapped a writer (or two writers overlapped).
func TestRWWriterExclusion(t *testing.T) {
	const writers, readers, iters = 4, 4, 1500
	forEachRWAlgorithm(t, func(t *testing.T, a RWAlgorithm) {
		l := NewRW(a)
		var x, y int // guarded by l; y is updated after a reschedule point
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					l.Lock()
					x++
					runtime.Gosched() // widen the window a torn read would need
					y++
					l.Unlock()
				}
			}()
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					l.RLock()
					if x != y {
						t.Errorf("reader observed torn state x=%d y=%d", x, y)
						l.RUnlock()
						return
					}
					l.RUnlock()
				}
			}()
		}
		wg.Wait()
		if x != writers*iters || y != writers*iters {
			t.Fatalf("x=%d y=%d, want both %d (lost writer updates)", x, y, writers*iters)
		}
	})
}

// TestRWReaderParallelism proves read shares genuinely coexist: one reader
// parks inside its critical section until a second reader also gets in. A
// lock that serialized readers would deadlock here (guarded by a timeout).
func TestRWReaderParallelism(t *testing.T) {
	forEachRWAlgorithm(t, func(t *testing.T, a RWAlgorithm) {
		l := NewRW(a)
		firstIn := make(chan struct{})
		secondIn := make(chan struct{})
		done := make(chan struct{})
		go func() {
			l.RLock()
			close(firstIn)
			<-secondIn // stay inside until the second reader is also inside
			l.RUnlock()
			close(done)
		}()
		<-firstIn
		go func() {
			l.RLock()
			close(secondIn)
			l.RUnlock()
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("second reader never entered while the first held its share (readers serialized)")
		}
	})
}

// TestRWTryUnderWriter: both try variants must fail while a writer holds,
// and succeed once it releases.
func TestRWTryUnderWriter(t *testing.T) {
	forEachRWAlgorithm(t, func(t *testing.T, a RWAlgorithm) {
		l := NewRW(a)
		l.Lock()
		tried := make(chan [2]bool)
		go func() { tried <- [2]bool{l.TryRLock(), l.TryLock()} }()
		if got := <-tried; got[0] || got[1] {
			t.Fatalf("TryRLock/TryLock under writer = %v/%v, want false/false", got[0], got[1])
		}
		l.Unlock()
		if !l.TryRLock() {
			t.Fatal("TryRLock on a free lock failed")
		}
		if l.TryLock() {
			t.Fatal("TryLock succeeded while a read share is out")
		}
		l.RUnlock()
		if !l.TryLock() {
			t.Fatal("TryLock on a free lock failed")
		}
		l.Unlock()
	})
}

// TestRWNoLostWakeups is the -race soak: readers, writers, and try-callers
// interleave for a fixed quota each; everyone finishing is the lost-wakeup
// check, and the exact writer tally plus the in-CS invariant is the
// exclusion check.
func TestRWNoLostWakeups(t *testing.T) {
	const writers, readers, iters = 3, 5, 800
	forEachRWAlgorithm(t, func(t *testing.T, a RWAlgorithm) {
		l := NewRW(a)
		var shared int64 // guarded by l
		var inWrite atomic.Int32
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			useTry := w == 0
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if useTry {
						if !l.TryLock() {
							l.Lock()
						}
					} else {
						l.Lock()
					}
					if inWrite.Add(1) != 1 {
						t.Error("two writers inside the critical section")
					}
					shared++
					inWrite.Add(-1)
					l.Unlock()
				}
			}()
		}
		for r := 0; r < readers; r++ {
			wg.Add(1)
			useTry := r == 0
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if useTry {
						if !l.TryRLock() {
							continue
						}
					} else {
						l.RLock()
					}
					if inWrite.Load() != 0 {
						t.Error("reader inside while a writer is inside")
					}
					_ = shared
					l.RUnlock()
				}
			}()
		}
		wg.Wait()
		if shared != writers*iters {
			t.Fatalf("shared = %d, want %d (lost writer updates)", shared, writers*iters)
		}
	})
}

// TestRWWriterProgressUnderReaderFlood: with a heavy reader stream, a
// writer must still complete its quota in bounded time. This is the
// anti-starvation property the striped lock gets from its back-out
// protocol, the write-preferring lock from its announce word, and the
// phase-fair lock from alternation. RWTTAS guarantees nothing — its CAS
// only wins in zero-reader windows — so the flood breathes (a short pause
// every few dozen reads) to make such windows exist: the property pinned
// for RWTTAS is "wins when windows occur", not "fair under saturation",
// which it documentedly is not (under -race a saturating flood starves it
// for minutes).
func TestRWWriterProgressUnderReaderFlood(t *testing.T) {
	if testing.Short() {
		t.Skip("starvation soak is slow")
	}
	forEachRWAlgorithm(t, func(t *testing.T, a RWAlgorithm) {
		l := NewRW(a)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					l.RLock()
					runtime.Gosched()
					l.RUnlock()
					if i%64 == 63 {
						time.Sleep(100 * time.Microsecond) // let zero-reader windows exist
					}
				}
			}()
		}
		done := make(chan struct{})
		go func() {
			for i := 0; i < 50; i++ {
				l.Lock()
				l.Unlock()
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Error("writer starved by reader flood")
		}
		close(stop)
		wg.Wait()
	})
}

// TestRWStripedInflation pins the lazy-striping contract at the lock level:
// a reader-concurrency-free life never allocates the spill; simultaneous
// readers inflate it.
func TestRWStripedInflation(t *testing.T) {
	l := NewRWStriped()
	for i := 0; i < 1000; i++ {
		l.RLock()
		l.RUnlock()
		l.Lock()
		l.Unlock()
	}
	if l.ReadersInflated() {
		t.Fatal("solitary use inflated the reader counter")
	}
	// Two shares held at once is exactly the trigger.
	l.RLock()
	l.RLock()
	if !l.ReadersInflated() {
		t.Fatal("concurrent read shares did not inflate the reader counter")
	}
	l.RUnlock()
	l.RUnlock()
	if got := l.Readers(); got != 0 {
		t.Fatalf("Readers after drain = %d, want 0", got)
	}
}

func BenchmarkRWUncontendedRead(b *testing.B) {
	for _, a := range RWAlgorithms() {
		b.Run(a.String(), func(b *testing.B) {
			l := NewRW(a)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.RLock()
				l.RUnlock()
			}
		})
	}
}

// BenchmarkRWReadMostly is the read-ratio table: four goroutines on one
// lock, write-only through mixed to the read-mostly regime the striped
// lock exists for (90 % reads is glsmark's inproc_rw; 100 % is
// BenchmarkRWUncontendedRead). Each goroutine interleaves reads and writes
// deterministically, so every run sees the same mix.
func BenchmarkRWReadMostly(b *testing.B) {
	for _, a := range RWAlgorithms() {
		for _, reads := range []int{0, 50, 99} {
			b.Run(a.String()+"/reads="+strconv.Itoa(reads)+"/goroutines=4", func(b *testing.B) {
				l := NewRW(a)
				b.SetParallelism(4)
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						if i%100 < reads {
							l.RLock()
							l.RUnlock()
						} else {
							l.Lock()
							l.Unlock()
						}
						i++
					}
				})
			})
		}
	}
}
