package locks

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gls/internal/backoff"
)

// fairSoakHold is the ticketed writers' critical section in the
// bounded-reader-wait soak, in pause units: long enough (tens of
// microseconds) to outlast one probe of a backed-out reader. With empty
// sections a reader that backs out once is charged the hundreds of phases
// that fit between two of its own probes, and the count measures the probe
// interval, not the lock.
const fairSoakHold = 1024

// TestRWBoundedReaderWait is the bounded-reader-wait conformance property of
// RWPhaseFair: with a continuous writer stream (writers re-acquiring with no
// pause), a reader acquisition spans no more than two writer phases plus
// slack for scheduling noise — the property under test is "tens, not
// thousands". It runs under two streams: ticketed writers that hand the lock
// around, and the gapless one — a single writer that holds for `hold` pause
// units and re-acquires at once, the stream plain RWStriped misses the bound
// under by two to three orders of magnitude (90th percentile 2 000–31 000
// phases in 19 of 20 runs on 2 CPUs).
//
// The phase counter can only be read before RLock is entered, so a
// reader descheduled between that load and its arrival at the lock is
// charged every phase it slept through — hundreds, on a busy 2-CPU host,
// for a lock that made it wait for none. The assertion is therefore on the
// 90th percentile of the per-read counts, which a few such samples cannot
// move and a starving lock cannot hide under; outright starvation is the
// 60 s deadline. Plain RWStriped deliberately fails this property — that
// demonstration lives in lockstress -bug readerstarvation, where an
// unbounded observation is a result, not a flake.
func TestRWBoundedReaderWait(t *testing.T) {
	const readers, readsEach, bound = 2, 40, 2 + 12
	for _, v := range []struct {
		name    string
		writers int
		hold    uint32
	}{
		{"rwphasefair/gapless", 1, 32},
		{"rwphasefair", 3, fairSoakHold},
	} {
		t.Run(v.name, func(t *testing.T) {
			l := NewRWPhaseFair()
			var phases atomic.Uint64 // writer phases begun (incremented in CS)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < v.writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						l.Lock()
						phases.Add(1)
						backoff.Pause(v.hold)
						l.Unlock()
					}
				}()
			}
			crossed := make([][]uint64, readers)
			var rg sync.WaitGroup
			for r := 0; r < readers; r++ {
				rg.Add(1)
				go func() {
					defer rg.Done()
					for phases.Load() == 0 {
						runtime.Gosched() // the stream is not running yet
					}
					for i := 0; i < readsEach; i++ {
						p0 := phases.Load()
						l.RLock()
						crossed[r] = append(crossed[r], phases.Load()-p0)
						l.RUnlock()
						runtime.Gosched()
					}
				}()
			}
			done := make(chan struct{})
			go func() { rg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Errorf("readers starved: did not finish %d reads under the writer stream", readsEach)
			}
			close(stop)
			wg.Wait()
			<-done // the stream has ended, so any reader still inside RLock drains now
			all := slices.Concat(crossed...)
			slices.Sort(all)
			if got := all[(len(all)-1)*9/10]; got > bound {
				t.Errorf("90%% of reads waited across <= %d writer phases (worst %d), bound is %d",
					got, all[len(all)-1], bound)
			}
		})
	}
}

// TestRWAlternatingFloodSoak alternates the flood direction on every RW
// algorithm: a reader flood while writers work a quota, then a writer flood
// while readers work a quota. The flood side stops when the quota side
// finishes, so even the deliberately one-sided algorithms (RWWritePref
// starves readers under a continuous writer stream by design, plain
// RWStriped the reverse) must come out exact: the writer tally is the
// exclusion check, both sides finishing is the lost-wakeup check. Run under
// -race in CI.
func TestRWAlternatingFloodSoak(t *testing.T) {
	const flooders, workers, quota, rounds = 4, 2, 300, 2
	forEachRWAlgorithm(t, func(t *testing.T, newRW func() RWLock) {
		l := newRW()
		var shared int64 // guarded by l
		for round := 0; round < rounds; round++ {
			for _, writerFloods := range []bool{false, true} {
				stop := make(chan struct{})
				var fg, qg sync.WaitGroup
				expect := shared
				for f := 0; f < flooders; f++ {
					fg.Add(1)
					go func() {
						defer fg.Done()
						for {
							select {
							case <-stop:
								return
							default:
							}
							if writerFloods {
								l.Lock()
								shared++
								l.Unlock()
							} else {
								l.RLock()
								_ = shared
								l.RUnlock()
							}
							runtime.Gosched()
						}
					}()
				}
				var writes atomic.Int64
				for q := 0; q < workers; q++ {
					qg.Add(1)
					go func() {
						defer qg.Done()
						for i := 0; i < quota; i++ {
							if writerFloods {
								l.RLock()
								if shared < expect {
									t.Error("reader observed a lost writer update")
								}
								l.RUnlock()
							} else {
								l.Lock()
								shared++
								writes.Add(1)
								l.Unlock()
							}
						}
					}()
				}
				qg.Wait()
				close(stop)
				fg.Wait()
				if !writerFloods && shared-expect < writes.Load() {
					t.Fatalf("writer updates lost: shared moved %d, quota side wrote %d", shared-expect, writes.Load())
				}
			}
		}
		l.Lock()
		l.Unlock() // the lock is still coherent after the storms
	})
}

// TestRWPhaseFairTryLockNeverRetires pins the no-backout contract: a
// TryLock that meets readers (or writers) fails *before* consuming a
// ticket, because a consumed ticket must complete its full announced phase
// — retiring one early would let two announced phases share a parity and
// deadlock a reader that slept across the gap (see the TryLock comment).
func TestRWPhaseFairTryLockNeverRetires(t *testing.T) {
	l := NewRWPhaseFair()
	l.RLock()
	if l.TryLock() {
		t.Fatal("TryLock succeeded with a read share out")
	}
	if got := l.Phases(); got != 0 {
		t.Fatalf("failed TryLock consumed %d phases, want 0 (no ticket may retire unannounced)", got)
	}
	// The failed try must not have announced: later readers flow freely.
	done := make(chan struct{})
	go func() {
		l.RLock()
		l.RUnlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("reader blocked behind a failed TryLock")
	}
	l.RUnlock()
	if !l.TryLock() {
		t.Fatal("TryLock on a free lock failed")
	}
	l.Unlock()
	l.Lock()
	l.Unlock()
	if got := l.Phases(); got != 2 {
		t.Fatalf("Phases = %d, want 2 (one TryLock phase, one Lock phase)", got)
	}
}

// TestRWPhaseFairReaderAdmittedBetweenWriters is the phase-alternation
// property in miniature: a reader that arrives while writer A holds is
// admitted at the A→B boundary even though writer B announced immediately —
// it reads concurrently with B's drain, because B counted it.
func TestRWPhaseFairReaderAdmittedBetweenWriters(t *testing.T) {
	l := NewRWPhaseFair()
	l.Lock() // writer A
	readerIn := make(chan struct{})
	go func() {
		l.RLock() // arrives under A, blocks
		close(readerIn)
		// Hold the share until the test confirms admission, so writer B's
		// drain is genuinely waiting on this reader.
	}()
	// Let the reader's arrival land under A (its ticket must predate B's
	// announcement for the property to be exercised).
	time.Sleep(20 * time.Millisecond)
	bDone := make(chan struct{})
	go func() {
		l.Lock() // writer B queues behind A
		l.Unlock()
		close(bDone)
	}()
	time.Sleep(20 * time.Millisecond) // B takes its ticket and waits
	l.Unlock()                        // A releases: the reader batch is admitted
	select {
	case <-readerIn:
	case <-time.After(30 * time.Second):
		t.Fatal("reader not admitted at the writer phase boundary")
	}
	select {
	case <-bDone:
		t.Fatal("writer B finished while the pre-announcement reader held its share")
	case <-time.After(50 * time.Millisecond):
	}
	l.RUnlock() // now B's drain completes
	select {
	case <-bDone:
	case <-time.After(30 * time.Second):
		t.Fatal("writer B never finished after the reader released")
	}
}
