package locks

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRWTTASBasic(t *testing.T) {
	l := NewRWTTAS()
	l.Lock()
	if !l.WriteLocked() {
		t.Fatal("WriteLocked false while write-held")
	}
	l.Unlock()
	l.RLock()
	l.RLock()
	for shares := 2; shares > 0; shares-- {
		if l.TryLock() {
			t.Fatalf("TryLock granted beside %d read shares", shares)
		}
		l.RUnlock()
	}
	if !l.TryLock() {
		t.Fatal("TryLock refused after every share was released")
	}
	l.Unlock()
}

func TestRWTTASTryVariants(t *testing.T) {
	l := NewRWTTAS()
	if !l.TryLock() {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryRLock() {
		t.Fatal("TryRLock succeeded under writer")
	}
	res := make(chan bool)
	go func() { res <- l.TryLock() }()
	if <-res {
		t.Fatal("TryLock succeeded under writer")
	}
	l.Unlock()

	if !l.TryRLock() {
		t.Fatal("TryRLock on free lock failed")
	}
	go func() { res <- l.TryLock() }()
	if <-res {
		t.Fatal("TryLock succeeded under reader")
	}
	if !l.TryRLock() {
		t.Fatal("second TryRLock failed")
	}
	l.RUnlock()
	l.RUnlock()
}

func TestRWTTASWriterExcludesReaders(t *testing.T) {
	l := NewRWTTAS()
	var data int64
	var readersSawTearing atomic.Bool
	var wg sync.WaitGroup

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Lock()
				// Write a torn-detectable pair.
				atomic.StoreInt64(&data, 1)
				runtime.Gosched()
				atomic.StoreInt64(&data, 0)
				l.Unlock()
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.RLock()
				if atomic.LoadInt64(&data) != 0 {
					readersSawTearing.Store(true)
				}
				l.RUnlock()
			}
		}()
	}
	wg.Wait()
	if readersSawTearing.Load() {
		t.Fatal("reader observed writer's intermediate state")
	}
}

func TestRWTTASConcurrentReaders(t *testing.T) {
	// Multiple readers must be able to overlap: take one read share, then
	// confirm a second one succeeds without releasing the first.
	l := NewRWTTAS()
	l.RLock()
	ok := make(chan bool)
	go func() { ok <- l.TryRLock() }()
	if !<-ok {
		t.Fatal("second reader blocked by first")
	}
	l.RUnlock()
	l.RUnlock()
}

func TestRWTTASWriteMutualExclusion(t *testing.T) {
	l := NewRWTTAS()
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 4000 {
		t.Fatalf("counter = %d, want 4000", counter)
	}
}
