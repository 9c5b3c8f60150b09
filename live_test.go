package gls

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"gls/internal/xrand"
	"gls/telemetry"
)

// TestEventStreamFreeRaceSoak is the glslive -race stress: subscriber
// churn (subscribe/poll/close) racing a Free/re-create storm. Every Free
// publishes a lifecycle event from inside the registry's locked section
// while subscribers attach and detach — the soak pins that a lock retired
// mid-stream can neither deadlock the fold against the subscriber list nor
// leak subscribers, and that the stream still delivers exactly once
// publishers quiesce.
func TestEventStreamFreeRaceSoak(t *testing.T) {
	reg := telemetry.New(telemetry.Options{SamplePeriod: 4, EventBuffer: 128})
	s := newTestService(t, Options{Telemetry: reg})

	const perWorker = 48
	const base = uint64(1) << 21
	iters := 3000
	if testing.Short() {
		iters = 800
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	if workers > 8 {
		workers = 8
	}

	stop := make(chan struct{})
	var churn, wg sync.WaitGroup
	// The long-lived subscriber registers before the churn starts — a fast
	// run can finish the whole storm before a goroutine-side Subscribe gets
	// scheduled, and events published with no subscribers are not buffered.
	longSub := reg.Events().Subscribe()
	defer longSub.Close()
	// Lock/Free churn: every Free folds stats and publishes a retired
	// event.
	for w := 0; w < workers; w++ {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			rng := xrand.NewSplitMix64(uint64(w)*104729 + 3)
			myBase := base + uint64(w*perWorker)
			for i := 0; i < iters; i++ {
				k := myBase + rng.Uintn(perWorker)
				s.Lock(k)
				s.Unlock(k)
				if rng.Uintn(3) == 0 {
					s.Free(k)
				}
			}
		}(w)
	}
	// Subscriber churn: short-lived subscribers polling mid-storm, plus
	// one long-lived subscriber draining throughout.
	var drained, lastDrop uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				drained += uint64(len(longSub.Poll(0)))
				lastDrop = longSub.Dropped()
				return
			case <-longSub.C():
				drained += uint64(len(longSub.Poll(0)))
			}
		}
	}()
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub := reg.Events().Subscribe()
				sub.Poll(8)
				sub.Close()
			}
		}()
	}

	// Churn workers exit by iteration count; the stop-driven subscribers
	// follow. A deadline turns a fold-vs-subscriber deadlock into a failure
	// instead of a hung test run.
	finished := make(chan struct{})
	go func() {
		churn.Wait()
		close(stop)
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("event-stream soak deadlocked")
	}

	if drained == 0 && lastDrop == 0 {
		t.Fatal("long-lived subscriber saw no lifecycle events despite Free storm")
	}
	// Stream still functional and exact after the storm: a fresh key
	// outside every churn range registers fresh stats, so its Free must fold
	// and publish.
	const probe = base - 1
	sub := reg.Events().Subscribe()
	defer sub.Close()
	s.Lock(probe)
	s.Unlock(probe)
	s.Free(probe)
	evs := sub.Poll(0)
	found := false
	for _, ev := range evs {
		if ev.Kind == telemetry.EventRetired && ev.Key == probe {
			found = true
		}
	}
	if !found || sub.Dropped() != 0 {
		t.Fatalf("post-storm stream: %d events, dropped %d, retired-seen %v", len(evs), sub.Dropped(), found)
	}
}
