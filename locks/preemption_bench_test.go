package locks

import (
	"runtime"
	"sync"
	"testing"
)

// BenchmarkPreemptionAdaptivity prices the paper's §3.2 preemption problem
// for the locks the tree acts on: the FIFO queue locks hand the lock to
// waiters the scheduler has descheduled, while MUTEX (the remedy GLK's mutex
// mode uses) and TTAS (the paper's non-FIFO baseline) give it to whoever
// runs. Four lockers share one lock; "4lockers" alone already outnumber the
// Ps on a 2-P box, and "4lockers+yielders" adds 4×GOMAXPROCS goroutines that
// do nothing but yield, so every hand-off competes with the run queue.
func BenchmarkPreemptionAdaptivity(b *testing.B) {
	algos := []struct {
		name string
		mk   func() Lock
	}{
		{"MCS", func() Lock { return NewMCS() }},
		{"Ticket", func() Lock { return NewTicket() }},
		{"Mutex", func() Lock { return NewMutex() }},
		{"TTAS", func() Lock { return NewTTAS() }},
	}
	for _, load := range []struct {
		name     string
		yielders int
	}{{"4lockers", 0}, {"4lockers+yielders", runtime.GOMAXPROCS(0) * 4}} {
		for _, a := range algos {
			b.Run(load.name+"/"+a.name, func(b *testing.B) {
				stop := make(chan struct{})
				var yieldWG sync.WaitGroup
				for i := 0; i < load.yielders; i++ {
					yieldWG.Add(1)
					go func() {
						defer yieldWG.Done()
						for {
							select {
							case <-stop:
								return
							default:
								runtime.Gosched()
							}
						}
					}()
				}
				l := a.mk()
				const threads = 4
				per := b.N/threads + 1
				var wg sync.WaitGroup
				b.ResetTimer()
				for t := 0; t < threads; t++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < per; i++ {
							l.Lock()
							l.Unlock()
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				close(stop)
				yieldWG.Wait()
			})
		}
	}
}
