package harness

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"gls/internal/pad"
	"gls/internal/xrand"
	"gls/locks"
)

// TestSetupOutsideWindow: what a body does before its first Next happens
// before Start returns and does not count in Elapsed.
func TestSetupOutsideWindow(t *testing.T) {
	const setup = 200 * time.Millisecond
	t0 := time.Now()
	stop := Start(2, 1, func(w *Worker) {
		time.Sleep(setup)
		for w.Next() {
		}
	})
	if since := time.Since(t0); since < setup {
		t.Fatalf("Start returned after %v, before the %v set-up ended", since, setup)
	}
	res := stop()
	if res.Elapsed >= setup {
		t.Fatalf("Elapsed %v counts the %v set-up", res.Elapsed, setup)
	}
}

// TestPerThreadSumsToOps: each worker's count is its own, and they add up.
func TestPerThreadSumsToOps(t *testing.T) {
	counts := make([]uint64, 3)
	res := Drive(3, 20*time.Millisecond, 1, func(w *Worker) {
		n := uint64(0)
		for w.Next() {
			n++
		}
		counts[w.ID] = n
	})
	if len(res.PerThread) != 3 {
		t.Fatalf("PerThread has %d entries, want 3", len(res.PerThread))
	}
	var sum uint64
	for i, c := range res.PerThread {
		if c != counts[i] {
			t.Errorf("worker %d: PerThread %d, but its body ran %d iterations", i, c, counts[i])
		}
		sum += c
	}
	if sum != res.Ops || res.Ops == 0 {
		t.Fatalf("PerThread sums to %d, Ops is %d", sum, res.Ops)
	}
}

// TestNoWorkerOutlivesStop: every body has returned by the time stop does.
func TestNoWorkerOutlivesStop(t *testing.T) {
	var live atomic.Int32
	stop := Start(4, 1, func(w *Worker) {
		live.Add(1)
		defer live.Add(-1)
		for w.Next() {
			time.Sleep(time.Microsecond)
		}
	})
	if n := live.Load(); n != 4 {
		t.Fatalf("%d bodies running after Start, want 4", n)
	}
	stop()
	if n := live.Load(); n != 0 {
		t.Fatalf("%d bodies still running after stop", n)
	}
}

// TestDriveDegenerate: no workers, and bodies that return without ever
// calling Next, neither hang Start nor stop.
func TestDriveDegenerate(t *testing.T) {
	if res := Drive(0, time.Millisecond, 1, func(*Worker) { t.Error("a body ran with n = 0") }); res.Ops != 0 || len(res.PerThread) != 0 {
		t.Fatalf("n = 0: %+v", res)
	}
	res := Drive(4, time.Millisecond, 1, func(w *Worker) {
		if w.ID%2 == 0 {
			return
		}
		for w.Next() {
		}
	})
	if res.PerThread[0] != 0 || res.PerThread[2] != 0 || res.PerThread[1] == 0 {
		t.Fatalf("per-worker counts %v, want zero for the workers that returned at once", res.PerThread)
	}
}

// TestWorkerLayout: a Worker is one cache line, and each starts one, so no
// two workers' RNG states or counts share a line.
func TestWorkerLayout(t *testing.T) {
	if size := unsafe.Sizeof(Worker{}); size != pad.CacheLineSize {
		t.Fatalf("Worker is %d bytes, want %d", size, pad.CacheLineSize)
	}
	addrs := make([]uintptr, 8)
	Drive(len(addrs), time.Millisecond, 1, func(w *Worker) {
		addrs[w.ID] = uintptr(unsafe.Pointer(w))
	})
	for id, a := range addrs {
		if a%pad.CacheLineSize != 0 {
			t.Errorf("worker %d at %#x, not %d-byte aligned", id, a, pad.CacheLineSize)
		}
	}
}

// TestWorkerStreams: worker i draws from seed + i·0x9e3779b9, the
// derivation harness.Run's figures have always used.
func TestWorkerStreams(t *testing.T) {
	const seed = 42
	got := make([]uint64, 3)
	Drive(3, time.Millisecond, seed, func(w *Worker) { got[w.ID] = w.Rng.Next() })
	for id, v := range got {
		want := xrand.NewSplitMix64(seed + uint64(id)*0x9e3779b9).Next()
		if v != want {
			t.Errorf("worker %d drew %#x first, want %#x", id, v, want)
		}
	}
}

// BenchmarkRun reports harness.Run's cost per operation per thread over
// 1 024 TICKET locks with no critical section, where the driver's own work
// per operation (a draw, a count, the stop check) weighs most. Each
// iteration is the median of three 400 ms runs, as the figures take it.
// It calls only Run, so the same rows run against any driver behind it.
func BenchmarkRun(b *testing.B) {
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("ticket/locks=1024/threads=%d", threads), func(b *testing.B) {
			cfg := Config{Threads: threads, Locks: 1024, Duration: 400 * time.Millisecond, Seed: 1}
			var ns float64
			for range b.N {
				res := RunMedian(cfg, NewAlgorithmFactory(locks.Ticket), 3)
				ns += float64(res.Elapsed.Nanoseconds()) * float64(threads) / float64(res.Ops)
			}
			b.ReportMetric(ns/float64(b.N), "ns/thread-op")
		})
	}
}
