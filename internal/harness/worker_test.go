package harness

import (
	"errors"
	"fmt"
	"strings"
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

// TestPaceSpreadsArrivals: on the fixed-interval schedule, worker i's k-th
// op is due at (k + i/n)·every, so n workers' arrivals split every
// interval into n equal gaps rather than arriving together, and a run
// whose window is two intervals issues exactly two ops per worker.
func TestPaceSpreadsArrivals(t *testing.T) {
	const n, every = 4, 100 * time.Millisecond
	for k := 0; k < 3; k++ {
		for i := 0; i < n; i++ {
			if got, want := arrival(i, k, n, every), time.Duration(k*n+i)*every/n; got != want {
				t.Errorf("worker %d, op %d: due at %v, want %v", i, k, got, want)
			}
		}
	}
	called := make([][]time.Time, n)
	p, err := Pace(n, 1, nil, every, 2*every, func(w *Worker, k int) (time.Time, error) {
		called[w.ID] = append(called[w.ID], time.Now())
		return time.Now(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Issued != 2*n || len(p.Service) != 2*n || len(p.Response) != 2*n {
		t.Fatalf("issued %d, %d service and %d response samples; want %d each", p.Issued, len(p.Service), len(p.Response), 2*n)
	}
	// No op is called before it is due, and the workers' first ops, due
	// (n−1)/n of an interval apart end to end, do not arrive together.
	if p.Response[0] < 0 {
		t.Errorf("an op was served %v before it was due", -p.Response[0])
	}
	if spread := called[n-1][0].Sub(called[0][0]); spread < every/2 {
		t.Errorf("the %d workers' first ops span %v, want about %v", n, spread, every*(n-1)/n)
	}
}

// TestPaceWalksThePlan: on a planned schedule each worker issues its own
// list in order, once each, a body's zero time is not sampled, an op
// reached after its arrival counts as late, and a body error ends only its
// worker and is returned.
func TestPaceWalksThePlan(t *testing.T) {
	at := [][]time.Duration{
		{0, time.Millisecond, 2 * time.Millisecond},
		nil,
		{0, 0, 0, 0},
	}
	seen := make([][]int, len(at))
	p, err := Pace(len(at), 1, at, 0, 0, func(w *Worker, k int) (time.Time, error) {
		seen[w.ID] = append(seen[w.ID], k)
		if w.ID == 0 && k == 1 {
			return time.Time{}, nil
		}
		return time.Now(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ks := range seen {
		if len(ks) != len(at[i]) {
			t.Errorf("worker %d issued %v, want each of its %d ops once", i, ks, len(at[i]))
		}
		for k, got := range ks {
			if got != k {
				t.Errorf("worker %d issued %v, want 0, 1, 2, ... in order", i, ks)
				break
			}
		}
	}
	if p.Issued != 7 || len(p.Service) != 6 || len(p.Response) != 6 {
		t.Errorf("issued %d with %d/%d samples, want 7 with 6 (one op was not served)", p.Issued, len(p.Service), len(p.Response))
	}
	// Worker 2's last three ops are due at the gate with the first: each is
	// reached after its arrival.
	if p.Late < 3 {
		t.Errorf("late = %d, want ≥ 3", p.Late)
	}
	boom := errors.New("boom")
	_, err = Pace(2, 1, [][]time.Duration{{0, 0}, {0}}, 0, 0, func(w *Worker, k int) (time.Time, error) {
		if w.ID == 1 {
			return time.Time{}, boom
		}
		return time.Now(), nil
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "worker 1") {
		t.Fatalf("err = %v, want worker 1's error", err)
	}
}
