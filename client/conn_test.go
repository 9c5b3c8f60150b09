package client

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// failingConn is a socket the peer has reset: once failed is set every
// write fails, while reads still wait on the peer. It counts the writes
// that reach it.
type failingConn struct {
	net.Conn
	failed *atomic.Bool
	writes *atomic.Int64
}

func (c failingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if c.failed.Load() {
		return 0, errors.New("connection reset by peer")
	}
	return c.Conn.Write(p)
}

// TestFailedWriteClosesConn: after a request's write fails, every later
// call returns an error wrapping ErrClosed at once — none waits for a reply
// the server never got, though the read side is still open — and none
// reaches the socket again.
func TestFailedWriteClosesConn(t *testing.T) {
	mine, theirs := net.Pipe()
	defer theirs.Close()
	go func() {
		br := bufio.NewReader(theirs)
		if _, err := br.ReadString('\n'); err != nil { // "session"
			return
		}
		_, _ = theirs.Write([]byte("SESSION 1\r\n"))
		for { // read on until the client hangs up, answering nothing
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
		}
	}()
	var failed atomic.Bool
	var writes atomic.Int64
	c, err := open(failingConn{mine, &failed, &writes})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()
	failed.Store(true)
	calls := []struct {
		name string
		do   func() error
	}{
		{"TryLock", func() error { _, err := c.TryLock(7, 0); return err }},
		{"Ping", c.Ping},
		{"Lock", func() error { _, err := c.Lock(context.Background(), 7, 0, 0); return err }},
		{"Unlock", func() error { return c.Unlock(7) }},
		{"Renew", func() error { _, err := c.Renew(7, 0); return err }},
		{"Token", func() error { _, err := c.Token(7); return err }},
		{"Stats", func() error { _, err := c.Stats(); return err }},
	}
	for _, call := range calls {
		errc := make(chan error, 1)
		go func() { errc <- call.do() }()
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("%s after a failed write: %v, want ErrClosed", call.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s after a failed write still blocked after 5 s", call.name)
		}
	}
	if n := writes.Load(); n != 2 {
		t.Fatalf("%d writes reached the socket, want 2: the session line and the failed TryLock", n)
	}
}

// storm starts goroutines goroutines that each take and release l n times
// around body. They begin together when run is called, which returns once
// all have finished.
func storm(l *reqLock, goroutines, n int, body func()) (run func()) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < n; i++ {
				l.Lock()
				body()
				l.Unlock()
			}
		}()
	}
	return func() {
		close(start)
		wg.Wait()
	}
}

// quiesce waits until neither the goroutine count nor the process's malloc
// count has moved for 10 ms, or two seconds have passed, and leaves the
// last reading in ms.
func quiesce(ms *runtime.MemStats) {
	runtime.ReadMemStats(ms)
	goroutines, mallocs := runtime.NumGoroutine(), ms.Mallocs
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		runtime.ReadMemStats(ms)
		g, m := runtime.NumGoroutine(), ms.Mallocs
		if g == goroutines && m == mallocs {
			return
		}
		goroutines, mallocs = g, m
	}
}

// TestReqLockExclusion: a plain counter under the lock counts every
// acquisition of eight goroutines exactly (and, under -race, with no race
// reported). Each holder yields between reading and writing the counter, as
// a round trip blocks, so the others find the lock held and park.
func TestReqLockExclusion(t *testing.T) {
	var l reqLock
	count := 0
	storm(&l, 8, 20000, func() {
		c := count
		runtime.Gosched()
		count = c + 1
	})()
	if count != 8*20000 {
		t.Fatalf("count = %d after 8 x 20000 locked increments, want %d", count, 8*20000)
	}
	if s := l.state.Load(); s != 0 {
		t.Fatalf("state = %#x after the storm, want 0 (free, no waiters)", s)
	}
}

// TestReqLockHandsOffToStarvedWaiter: a holder that releases and at once
// re-acquires (barging) cannot keep a waiter out. G holds the lock for 5 ms
// while W parks, then loops Unlock; Lock, each hold blocking briefly as a
// round trip does. The hand-off rule (DESIGN §14, rule 4) bounds W at two
// of G's releases: the first wakes W, which loses to G's re-Lock and,
// having waited over starvationThreshold, switches the lock to hand-off
// mode; the second hands W the lock. The bound allows one release more,
// for a W the scheduler runs only after G's second release. A barging lock
// without the hand-off fails here: W wakes while G holds the lock, every
// time.
func TestReqLockHandsOffToStarvedWaiter(t *testing.T) {
	var l reqLock
	l.Lock()
	var got atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Lock()
		got.Store(true)
		l.Unlock()
	}()
	for l.state.Load()>>reqWaiterShift == 0 { // until W has parked
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(5 * time.Millisecond)
	const bound, limit = 3, 1000
	releases := 0
	for !got.Load() && releases < limit {
		l.Unlock()
		releases++
		l.Lock()
		time.Sleep(20 * time.Microsecond)
	}
	l.Unlock()
	<-done
	if !got.Load() {
		t.Fatalf("the waiter had not acquired after %d of the holder's releases, want <= %d", releases, bound)
	}
	if releases > bound {
		t.Fatalf("the waiter acquired at the holder's release %d, want <= %d", releases, bound)
	}
	t.Logf("the waiter acquired at the holder's release %d", releases)
}

// TestReqLockContendedAllocs: once a storm has grown the free list of waiter
// records to its peak, contended acquisitions allocate nothing. Holders
// yield while they hold the lock, so every storm parks waiters. Each storm
// after the warm-up is 8 x 10000 acquisitions, its goroutines started
// before its Mallocs delta is taken, and taken only once the process is
// quiet: Mallocs counts the whole process, and goroutines an earlier test
// left winding down allocate too. The storms run on one P. A parked
// goroutine takes a sudog from its P's cache and may give it back to
// another P's, so on two Ps the runtime allocates sudogs in storm after
// storm (up to 16 objects in one, measured) until both caches are full.
// One P's cache refills from itself. The runtime still allocates a few
// objects of its own now and then (sudogs, after a collection empties the
// central cache), so the bound is on the quietest of three. A Lock that
// allocated per park would put thousands in every storm.
func TestReqLockContendedAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var l reqLock
	storm(&l, 8, 10000, runtime.Gosched)()
	records := 0
	l.mu.Lock()
	for w := l.free; w != nil; w = w.next {
		records++
	}
	l.mu.Unlock()
	if records == 0 {
		t.Fatal("the warm-up storm parked no waiter: it was not contended")
	}
	const bound = 4
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		run := storm(&l, 8, 10000, runtime.Gosched)
		var before, after runtime.MemStats
		quiesce(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least > bound {
		t.Fatalf("the quietest of three contended storms of 8 x 10000 acquisitions allocated %d objects, want <= %d (%d waiter records after warm-up)", least, bound, records)
	}
	t.Logf("%d waiter records after warm-up; the quietest storm allocated %d objects", records, least)
}
