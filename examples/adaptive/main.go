// Watching GLK adapt (paper §3, Figure 10 in miniature).
//
// One GLK lock lives through three workload phases — single-threaded,
// heavily contended, and oversubscribed — and prints every mode transition
// with its reason, via the OnTransition hook (the §4.3 transition tracing).
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gls/glk"
	"gls/internal/cycles"
	"gls/internal/sysmon"
)

func main() {
	mon := sysmon.New(sysmon.Options{DisableProbes: true})
	mon.Start()
	defer mon.Stop()

	lock := glk.New(&glk.Config{
		Monitor:      mon,
		SamplePeriod: 16,
		AdaptPeriod:  256,
		OnTransition: func(from, to glk.Mode, reason string) {
			fmt.Printf("  [glk] %s -> %s: %s\n", from, to, reason)
		},
	})

	// hint is what the monitor believes the system load is. On a machine
	// with plenty of cores the real census works; on a small CI box we feed
	// the scenario's intent directly so every mode is demonstrable
	// (contended-but-not-oversubscribed needs load <= contexts).
	runPhase := func(name string, threads, spinners, hint int, csCycles uint64, d time.Duration) {
		fmt.Printf("phase %q: %d threads, %d background spinners, CS=%d cycles\n",
			name, threads, spinners, csCycles)
		mon.SetHint(hint)
		var stop atomic.Bool
		var wg sync.WaitGroup
		for i := 0; i < spinners; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					cycles.Wait(512)
					runtime.Gosched()
				}
			}()
		}
		var ops atomic.Uint64
		for i := 0; i < threads; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					lock.Lock()
					cycles.Wait(csCycles)
					lock.Unlock()
					ops.Add(1)
				}
			}()
		}
		time.Sleep(d)
		stop.Store(true)
		wg.Wait()
		mon.SetHint(0)
		st := lock.Stats()
		fmt.Printf("  -> %d ops, mode now %v, avg queue %.2f\n\n", ops.Load(), st.Mode, st.QueueEMA)
	}

	runPhase("quiet", 1, 0, 0, 512, 300*time.Millisecond)
	runPhase("contended", 8, 0, 0, 1024, 500*time.Millisecond)
	runPhase("oversubscribed", 8, 48, 8+48, 1024, 500*time.Millisecond)
	runPhase("quiet again", 1, 0, 0, 512, 700*time.Millisecond)

	st := lock.Stats()
	fmt.Printf("lifetime: %d acquisitions, %d transitions\n", st.Acquired, st.Transitions)
}
