package locks

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// forEachAlgorithm runs f once per lock algorithm as a subtest.
func forEachAlgorithm(t *testing.T, f func(t *testing.T, a Algorithm)) {
	t.Helper()
	for _, a := range Algorithms() {
		t.Run(a.String(), func(t *testing.T) { f(t, a) })
	}
}

// TestAlgorithmStringRoundTrip: every algorithm is valid and its name
// finds it again among Algorithms, which is how a name is read back.
func TestAlgorithmStringRoundTrip(t *testing.T) {
	for _, a := range Algorithms() {
		if !a.Valid() {
			t.Fatalf("%v is not valid", a)
		}
		for _, b := range Algorithms() {
			if (a.String() == b.String()) != (a == b) {
				t.Fatalf("round trip %v -> %q -> %v", a, a.String(), b)
			}
		}
	}
	if Algorithm(0).Valid() {
		t.Fatal("zero Algorithm reported valid")
	}
	if s := Algorithm(99).String(); s != "Algorithm(99)" {
		t.Fatalf("unknown algorithm String = %q", s)
	}
}

func TestNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(Algorithm(0))
}

func TestBasicLockUnlock(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, a Algorithm) {
		l := New(a)
		for i := 0; i < 100; i++ {
			l.Lock()
			l.Unlock()
		}
	})
}

func TestTryLockSemantics(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, a Algorithm) {
		l := New(a)
		if !l.TryLock() {
			t.Fatal("TryLock on free lock failed")
		}
		done := make(chan bool)
		go func() { done <- l.TryLock() }()
		if <-done {
			t.Fatal("TryLock succeeded on a held lock")
		}
		l.Unlock()
		if !l.TryLock() {
			t.Fatal("TryLock after Unlock failed")
		}
		l.Unlock()
	})
}

// TestMutualExclusion hammers a shared counter: any mutual-exclusion
// violation loses increments.
func TestMutualExclusion(t *testing.T) {
	const (
		goroutines = 8
		iters      = 2000
	)
	forEachAlgorithm(t, func(t *testing.T, a Algorithm) {
		l := New(a)
		var counter int // deliberately unsynchronised; the lock is the protection
		var inCS atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					l.Lock()
					if inCS.Add(1) != 1 {
						t.Error("two goroutines inside the critical section")
					}
					counter++
					inCS.Add(-1)
					l.Unlock()
				}
			}()
		}
		wg.Wait()
		if counter != goroutines*iters {
			t.Fatalf("counter = %d, want %d (lost updates)", counter, goroutines*iters)
		}
	})
}

// TestMixedLockAndTryLock interleaves blocking and non-blocking acquirers.
func TestMixedLockAndTryLock(t *testing.T) {
	const (
		goroutines = 6
		iters      = 1000
	)
	forEachAlgorithm(t, func(t *testing.T, a Algorithm) {
		l := New(a)
		var counter atomic.Int64
		var inCS atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			useTry := g%2 == 0
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if useTry {
						if !l.TryLock() {
							continue
						}
					} else {
						l.Lock()
					}
					if inCS.Add(1) != 1 {
						t.Error("mutual exclusion violated")
					}
					counter.Add(1)
					inCS.Add(-1)
					l.Unlock()
				}
			}()
		}
		wg.Wait()
	})
}

// TestNoStarvation checks that with several contenders every goroutine
// completes its quota in bounded time (liveness under GOMAXPROCS=1 included).
func TestNoStarvation(t *testing.T) {
	if testing.Short() {
		t.Skip("starvation test is slow")
	}
	forEachAlgorithm(t, func(t *testing.T, a Algorithm) {
		l := New(a)
		const goroutines = 4
		done := make(chan int, goroutines)
		for g := 0; g < goroutines; g++ {
			go func(id int) {
				for i := 0; i < 500; i++ {
					l.Lock()
					l.Unlock()
				}
				done <- id
			}(g)
		}
		timeout := time.After(30 * time.Second)
		for i := 0; i < goroutines; i++ {
			select {
			case <-done:
			case <-timeout:
				t.Fatalf("goroutine starved (got %d/%d)", i, goroutines)
			}
		}
	})
}

// TestHandoffChain passes a token through a chain of goroutines, exercising
// repeated contended handoffs.
func TestHandoffChain(t *testing.T) {
	forEachAlgorithm(t, func(t *testing.T, a Algorithm) {
		l := New(a)
		var token int
		var wg sync.WaitGroup
		const workers, rounds = 5, 200
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					l.Lock()
					token++
					l.Unlock()
				}
			}()
		}
		wg.Wait()
		if token != workers*rounds {
			t.Fatalf("token = %d, want %d", token, workers*rounds)
		}
	})
}

func TestManyLocksIndependent(t *testing.T) {
	// Locks must not interfere with each other (shared pools etc.).
	forEachAlgorithm(t, func(t *testing.T, a Algorithm) {
		const nlocks = 16
		ls := make([]Lock, nlocks)
		counters := make([]int64, nlocks*8) // spaced to avoid false sharing noise
		for i := range ls {
			ls[i] = New(a)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					k := (seed + i) % nlocks
					ls[k].Lock()
					counters[k*8]++
					ls[k].Unlock()
				}
			}(g)
		}
		wg.Wait()
		var total int64
		for i := 0; i < nlocks; i++ {
			total += counters[i*8]
		}
		if total != 4*2000 {
			t.Fatalf("total = %d, want %d", total, 4*2000)
		}
	})
}

func BenchmarkUncontended(b *testing.B) {
	for _, a := range Algorithms() {
		b.Run(a.String(), func(b *testing.B) {
			l := New(a)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Lock()
				l.Unlock()
			}
		})
	}
}

func BenchmarkContended(b *testing.B) {
	for _, a := range Algorithms() {
		b.Run(fmt.Sprintf("%s/goroutines=4", a), func(b *testing.B) {
			l := New(a)
			var counter int64
			b.SetParallelism(4)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					l.Lock()
					counter++
					l.Unlock()
				}
			})
		})
	}
}
