package glk

import (
	"fmt"
	"sync"
	"testing"

	"gls/locks"
)

// BenchmarkFrozenModeCost is what GLK adds to the low-level lock it runs
// in mcs or mutex mode: one lock and an empty critical section, GLK frozen
// in the mode beside the bare lock it delegates to. The b.N acquisitions
// are split over the goroutines, so ns/op is the time one Lock+Unlock
// occupies the lock. Bare MCS is left out at 10 goroutines: on
// two Ps its waiters spin through preempted predecessors (the paper's
// Figure 8 collapse) and a row takes tens of µs per op.
func BenchmarkFrozenModeCost(b *testing.B) {
	type locker interface {
		Lock()
		Unlock()
	}
	frozen := func(m Mode) locker {
		return New(&Config{InitialMode: m, DisableAdaptation: true, Monitor: newTestMonitor()})
	}
	for _, c := range []struct {
		name       string
		goroutines []int
		mk         func() locker
	}{
		{"glk-mutex", []int{2, 10}, func() locker { return frozen(ModeMutex) }},
		{"mutex", []int{2, 10}, func() locker { return locks.NewMutex() }},
		{"glk-mcs", []int{2}, func() locker { return frozen(ModeMCS) }},
		{"mcs", []int{2}, func() locker { return locks.NewMCS() }},
	} {
		for _, g := range c.goroutines {
			b.Run(fmt.Sprintf("%s/g=%d", c.name, g), func(b *testing.B) {
				l := c.mk()
				var wg sync.WaitGroup
				for w := 0; w < g; w++ {
					n := b.N / g
					if w < b.N%g {
						n++
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < n; i++ {
							l.Lock()
							l.Unlock()
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
