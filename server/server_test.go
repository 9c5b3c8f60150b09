package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gls"
)

// newTestServer starts a server on a loopback port and returns it with its
// address. Closed via t.Cleanup.
func newTestServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

// tconn is a scripted raw-TCP client for wire-level assertions.
type tconn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialT(t *testing.T, addr string) *tconn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	c := &tconn{t: t, nc: nc, br: bufio.NewReader(nc)}
	t.Cleanup(func() { _ = nc.Close() })
	return c
}

// send writes one raw chunk (callers append their own terminators, so
// pipelined multi-command writes are a single send).
func (c *tconn) send(raw string) {
	c.t.Helper()
	if _, err := c.nc.Write([]byte(raw)); err != nil {
		c.t.Fatalf("write %q: %v", raw, err)
	}
}

// recv reads one response line (5s deadline).
func (c *tconn) recv() string {
	c.t.Helper()
	_ = c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := c.br.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read: %v (partial %q)", err, line)
	}
	return strings.TrimRight(line, "\r\n")
}

// expect asserts the next line's leading fields.
func (c *tconn) expect(prefix string) string {
	c.t.Helper()
	line := c.recv()
	if line != prefix && !strings.HasPrefix(line, prefix+" ") {
		c.t.Fatalf("got %q, want %q...", line, prefix)
	}
	return line
}

// fmtKey renders a key as responses carry it.
func fmtKey(k uint64) string { return "0x" + strconv.FormatUint(k, 16) }

// tokenOf extracts the token field of a GRANTED/GRANT/RENEWED line.
func tokenOf(t *testing.T, line string, idx int) uint64 {
	t.Helper()
	f := strings.Fields(line)
	if len(f) <= idx {
		t.Fatalf("short reply %q", line)
	}
	tok, err := strconv.ParseUint(f[idx], 10, 64)
	if err != nil {
		t.Fatalf("bad token in %q: %v", line, err)
	}
	return tok
}

func TestWireBasics(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	c := dialT(t, addr)
	c.send("session\r\n")
	c.expect("SESSION")
	c.send("ping\n") // bare LF is as good as CRLF
	c.expect("PONG")
	c.send("token 7\r\n")
	c.expect("TOKEN 0x7 0")
	c.send("stats\r\n")
	c.expect("STATS")
	c.send("bogus\r\n")
	c.expect("ERR command")
	c.send("quit\r\n")
	c.expect("BYE")
}

func TestTryLockUnlock(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	a, b := dialT(t, addr), dialT(t, addr)

	a.send("trylock 7\r\n")
	tok1 := tokenOf(t, a.expect("GRANTED 0x7"), 2)
	if tok1 != 1 {
		t.Fatalf("first grant token = %d, want 1", tok1)
	}
	// Same session re-acquiring is refused (it would self-deadlock a
	// worker); another session just loses the race.
	a.send("trylock 7\r\n")
	a.expect("ERR held")
	b.send("trylock 7\r\n")
	b.expect("BUSY 0x7")

	a.send("unlock 7\r\n")
	a.expect("RELEASED 0x7")
	a.send("unlock 7\r\n")
	a.expect("ERR notheld")

	b.send("trylock 7\r\n")
	tok2 := tokenOf(t, b.expect("GRANTED 0x7"), 2)
	if tok2 <= tok1 {
		t.Fatalf("token did not advance: %d then %d", tok1, tok2)
	}
}

func TestWaitGrantAfterUnlock(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	a, b := dialT(t, addr), dialT(t, addr)

	a.send("trylock 7\r\n")
	tokA := tokenOf(t, a.expect("GRANTED 0x7"), 2)
	b.send("wait 42 7\r\n")
	b.expect("QUEUED 42")
	a.send("unlock 7\r\n")
	a.expect("RELEASED 0x7")
	line := b.expect("GRANT 42 0x7")
	if tokB := tokenOf(t, line, 3); tokB <= tokA {
		t.Fatalf("queued grant token %d not above %d", tokB, tokA)
	}
	b.send("unlock 7\r\n")
	b.expect("RELEASED 0x7")
}

func TestWaitTimeoutAndCancel(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	a, b := dialT(t, addr), dialT(t, addr)

	a.send("trylock 7\r\n")
	a.expect("GRANTED 0x7")

	b.send("wait 1 7 0 50\r\n")
	b.expect("QUEUED 1")
	b.expect("TIMEOUT 1")

	b.send("wait 2 7\r\n")
	b.expect("QUEUED 2")
	b.send("cancel 2\r\n")
	b.expect("OK cancel 2")
	b.expect("CANCELLED 2")

	// Cancelling an unknown id is still acknowledged (the wait may have
	// resolved in flight).
	b.send("cancel 99\r\n")
	b.expect("OK cancel 99")
}

func TestWaitValidation(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	a, b := dialT(t, addr), dialT(t, addr)
	a.send("trylock 7\r\n")
	a.expect("GRANTED 0x7")

	// Waiting on a key the session itself holds is refused.
	a.send("wait 1 7\r\n")
	a.expect("ERR held")

	// Duplicate outstanding wait ids are refused.
	b.send("wait 5 7\r\n")
	b.expect("QUEUED 5")
	b.send("wait 5 8\r\n")
	b.expect("ERR dupid")
	b.send("cancel 5\r\n")
	b.expect("OK cancel 5")
	b.expect("CANCELLED 5")
}

func TestPipelinedRequests(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	c := dialT(t, addr)
	// One write, many commands: replies come back in order.
	c.send("ping\r\ntrylock 7\r\ntoken 7\r\nunlock 7\r\nping\r\n")
	c.expect("PONG")
	c.expect("GRANTED 0x7 1")
	c.expect("TOKEN 0x7 1")
	c.expect("RELEASED 0x7")
	c.expect("PONG")
}

func TestOversizedLineClosesConn(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	c := dialT(t, addr)
	c.send("trylock " + strings.Repeat("7", maxLineBytes) + "\r\n")
	c.expect("ERR toolong")
	// The stream can no longer be framed; the server hangs up.
	_ = c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.br.ReadString('\n'); err == nil {
		t.Fatal("connection stayed open after oversized line")
	}
}

func TestSessionDeathReleasesLocks(t *testing.T) {
	srv, addr := newTestServer(t, Options{SweepInterval: 10 * time.Millisecond})
	a := dialT(t, addr)
	a.send("trylock 7 60000\r\n") // long lease: release must come from death, not TTL
	tokA := tokenOf(t, a.expect("GRANTED 0x7"), 2)
	_ = a.nc.Close() // abrupt death, no unlock

	// The teardown clamps the lease and kicks the sweeper; the key frees.
	b := dialT(t, addr)
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.send("trylock 7\r\n")
		line := b.recv()
		if strings.HasPrefix(line, "GRANTED") {
			if tokB := tokenOf(t, line, 2); tokB <= tokA {
				t.Fatalf("post-death token %d not above %d", tokB, tokA)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lock not released after session death (last: %q)", line)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := srv.Stats()
	if st.Disconnects == 0 || st.Expiries == 0 {
		t.Fatalf("death release not accounted: %+v", st)
	}
}

func TestLeaseExpiryNotifiesAndFrees(t *testing.T) {
	_, addr := newTestServer(t, Options{SweepInterval: 10 * time.Millisecond})
	a, b := dialT(t, addr), dialT(t, addr)

	a.send("trylock 7 30\r\n")
	tokA := tokenOf(t, a.expect("GRANTED 0x7"), 2)
	// The sweeper reaps the lease and tells the (still-connected) holder.
	line := a.expect("EXPIRED 0x7")
	if tok := tokenOf(t, line, 2); tok != tokA {
		t.Fatalf("EXPIRED names token %d, want %d", tok, tokA)
	}
	// The lock is gone server-side: unlock reports notheld, and another
	// session acquires with a larger token.
	a.send("unlock 7\r\n")
	a.expect("ERR notheld")
	b.send("trylock 7\r\n")
	if tokB := tokenOf(t, b.expect("GRANTED 0x7"), 2); tokB <= tokA {
		t.Fatalf("post-expiry token %d not above %d", tokB, tokA)
	}
}

func TestRenewExtendsAndExpiryIsAuthoritative(t *testing.T) {
	// A glacial sweeper: expiry enforcement below comes from the renew
	// path's own clock check, not the background reaper.
	_, addr := newTestServer(t, Options{SweepInterval: time.Hour})
	c := dialT(t, addr)

	c.send("trylock 7 80\r\n")
	tok := tokenOf(t, c.expect("GRANTED 0x7"), 2)
	// Renewing within the lease keeps the token and resets the clock.
	for i := 0; i < 3; i++ {
		time.Sleep(40 * time.Millisecond)
		c.send("renew 7 80\r\n")
		if rtok := tokenOf(t, c.expect("RENEWED 0x7"), 2); rtok != tok {
			t.Fatalf("renew changed token: %d → %d", tok, rtok)
		}
	}
	// Let the lease lapse; renew must refuse even though the sweeper has
	// not run, and the refusal releases the lock.
	time.Sleep(120 * time.Millisecond)
	c.send("renew 7 80\r\n")
	c.expect("ERR expired")
	c.send("trylock 7 80\r\n")
	if tok2 := tokenOf(t, c.expect("GRANTED 0x7"), 2); tok2 <= tok {
		t.Fatalf("post-expiry token %d not above %d", tok2, tok)
	}
}

func TestStatsCounters(t *testing.T) {
	srv, addr := newTestServer(t, Options{})
	c := dialT(t, addr)
	c.send("trylock 7\r\nunlock 7\r\n")
	c.expect("GRANTED 0x7")
	c.expect("RELEASED 0x7")
	st := srv.Stats()
	if st.Grants != 1 || st.Releases != 1 || st.Sessions != 1 || st.Held != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDebugModeRejected(t *testing.T) {
	if _, err := New(Options{Service: gls.Options{Debug: true}}); err == nil {
		t.Fatal("New accepted Service.Debug")
	}
}

// TestConcurrentSessionsOneKey is the -race soak: many sessions contend
// one key through a mix of trylock, queued waits and abrupt disconnects,
// exercising the cross-goroutine hand-offs inside the server (reader →
// wait's goroutine → sweeper) under the detector. The token log is appended
// inside each critical section — the glsd lease makes those sections
// disjoint in real time, so append order is grant order — and must come
// out strictly increasing across sessions, expiries and drops. (The log
// itself needs a local mutex: the detector cannot see happens-before
// edges through loopback TCP, however real they are.)
func TestConcurrentSessionsOneKey(t *testing.T) {
	_, addr := newTestServer(t, Options{SweepInterval: 10 * time.Millisecond})
	const (
		workers = 8
		iters   = 30
		key     = "0xabc"
	)
	var counter int
	var tokens []uint64 // appended inside the critical section: grant order
	var dropped int
	var mu sync.Mutex

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c := dialT(t, addr)
				var tok uint64
				if i%2 == 0 {
					c.send("wait 1 " + key + " 10000 8000\r\n")
					c.expect("QUEUED 1")
					line := c.recv()
					if strings.HasPrefix(line, "TIMEOUT") {
						continue
					}
					tok = tokenOf(t, line, 3)
				} else {
					granted := false
					for try := 0; try < 4000; try++ {
						c.send("trylock " + key + " 10000\r\n")
						line := c.recv()
						if strings.HasPrefix(line, "GRANTED") {
							tok = tokenOf(t, line, 2)
							granted = true
							break
						}
						time.Sleep(time.Millisecond)
					}
					if !granted {
						continue
					}
				}
				// Critical section: the glsd lease keeps these disjoint in
				// real time, so the append order is the grant order.
				mu.Lock()
				counter++
				tokens = append(tokens, tok)
				mu.Unlock()
				if w%3 == 0 && i%5 == 4 {
					// Abrupt death while holding: the sweeper releases.
					_ = c.nc.Close()
					mu.Lock()
					dropped++
					mu.Unlock()
					continue
				}
				c.send("unlock " + key + "\r\n")
				c.expect("RELEASED " + key)
				_ = c.nc.Close()
			}
		}(w)
	}
	wg.Wait()

	if counter != len(tokens) {
		t.Fatalf("counter %d != grants %d: critical section was not exclusive", counter, len(tokens))
	}
	for i := 1; i < len(tokens); i++ {
		if tokens[i] <= tokens[i-1] {
			t.Fatalf("token order violated at %d: %d after %d", i, tokens[i], tokens[i-1])
		}
	}
	if dropped == 0 {
		t.Fatal("soak never exercised the disconnect path")
	}
	t.Logf("grants=%d dropped=%d", len(tokens), dropped)
}

// TestServerCloseDrains checks Close returns with sessions alive, waits
// queued and locks held — nothing deadlocks, every lock comes home.
func TestServerCloseDrains(t *testing.T) {
	srv, addr := newTestServer(t, Options{SweepInterval: 10 * time.Millisecond})
	a, b := dialT(t, addr), dialT(t, addr)
	a.send("trylock 7 60000\r\n")
	a.expect("GRANTED 0x7")
	b.send("wait 1 7\r\n")
	b.expect("QUEUED 1")

	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain")
	}
	if st := srv.Stats(); st.Held != 0 || st.Sessions != 0 {
		t.Fatalf("after Close: %+v", st)
	}
}

// TestOverloadRefusal fills the one bound on outstanding acquisitions and
// checks the honest ERR overload: exact (the bound is one atomic count, not
// a queue a worker may be draining), rolled back completely (the refused id
// is reusable and nothing stays pinned or counted), and the reader survives
// to serve more requests.
func TestOverloadRefusal(t *testing.T) {
	srv, addr := newTestServer(t, Options{QueueDepth: 2, SweepInterval: 10 * time.Millisecond})
	holder := dialT(t, addr)
	holder.send("trylock 7 60000\r\n")
	holder.expect("GRANTED 0x7")

	conns := []*tconn{dialT(t, addr), dialT(t, addr)}
	for i, c := range conns {
		c.send(fmt.Sprintf("wait %d 7 0 60000\r\n", i+1))
		c.expect("QUEUED")
	}
	c := dialT(t, addr)
	c.send("wait 100 7 0 60000\r\n")
	c.expect("ERR overload")
	c.send("wait 101 9 0 60000\r\n") // a free key is refused too: the bound is on waits, not keys
	c.expect("ERR overload")
	if st := srv.Stats(); st.Waiting != 2 || st.Overloads != 2 {
		t.Fatalf("after two refusals: %+v, want waiting=2 overloads=2", st)
	}
	c.send("ping\r\n")
	c.expect("PONG") // the refusal left the connection healthy

	// A slot that comes back is usable, under the id that was refused.
	conns[0].send("cancel 1\r\n")
	conns[0].expect("OK cancel 1")
	conns[0].expect("CANCELLED 1")
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled wait still counted: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	c.send("wait 100 9 0 60000\r\n")
	c.expect("QUEUED 100")
	c.expect("GRANT 100 0x9")
}

// parkedWaiters counts the goroutines blocked in the blocking lock's parked
// select — enqueued in some key's FIFO queue, past the spin phase — from a
// dump of all stacks. Exact only in a test that is not t.Parallel.
func parkedWaiters() int {
	buf := make([]byte, 1<<20) // ≈ 1 KB of text per goroutine; the tests park dozens
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		header, _, _ := bytes.Cut(g, []byte("\n"))
		if bytes.Contains(header, []byte("[select")) && bytes.Contains(g, []byte("locks.(*MutexLock).LockCancel")) {
			n++
		}
	}
	return n
}

// waitParked returns once n goroutines are parked in a key's queue.
func waitParked(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for parkedWaiters() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters parked, want %d", parkedWaiters(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// queueBehind parks n fresh sessions' waits on key, one after another —
// each is in the key's queue before the next is sent — and returns them in
// arrival order.
func queueBehind(t *testing.T, addr string, key uint64, n int) []*tconn {
	t.Helper()
	waiters := make([]*tconn, n)
	for i := range waiters {
		waiters[i] = dialT(t, addr)
		waiters[i].send(fmt.Sprintf("wait 1 %s 60000 60000\r\n", fmtKey(key)))
		waiters[i].expect("QUEUED 1")
		waitParked(t, i+1)
	}
	return waiters
}

// TestFreeKeyWaitNotBlockedByWaiters: waiters on a held key cost a parked
// goroutine each, so any number of them leaves a wait on a free key
// unaffected. (A pool of workers running the waits is a head-of-line block:
// waiters on one held key take every worker, and the free key's wait is
// QUEUED and then not granted for as long as the first key stays held.)
func TestFreeKeyWaitNotBlockedByWaiters(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	holder := dialT(t, addr)
	holder.send("trylock 7 60000\r\n")
	holder.expect("GRANTED 0x7")
	for i := 0; i < 64; i++ {
		c := dialT(t, addr)
		c.send("wait 1 7 60000 60000\r\n")
		c.expect("QUEUED 1")
	}
	other := dialT(t, addr)
	other.send("wait 1 9\r\n")
	other.expect("QUEUED 1")
	_ = other.nc.SetReadDeadline(time.Now().Add(time.Second))
	line, err := other.br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "GRANT 1 0x9 ") {
		t.Fatalf("wait on a free key behind 64 waiters on a held one: %q, %v", line, err)
	}
}

// TestGrantOrderIsArrivalOrder: the key's queue is FIFO and release hands
// the lock to its head, so sessions that queued one after another are
// granted in that order, with rising tokens.
func TestGrantOrderIsArrivalOrder(t *testing.T) {
	_, addr := newTestServer(t, Options{})
	holder := dialT(t, addr)
	holder.send("trylock 7 60000\r\n")
	last := tokenOf(t, holder.expect("GRANTED 0x7"), 2)
	waiters := queueBehind(t, addr, 7, 16)

	holder.send("unlock 7\r\n")
	holder.expect("RELEASED 0x7")
	for i, c := range waiters {
		tok := tokenOf(t, c.expect("GRANT 1 0x7"), 3)
		if tok <= last {
			t.Fatalf("waiter %d: token %d after %d", i, tok, last)
		}
		last = tok
		// Nobody behind may have been granted while this one holds.
		for j := i + 1; j < len(waiters); j++ {
			if n := waiters[j].br.Buffered(); n != 0 {
				t.Fatalf("waiter %d has a reply while waiter %d holds the key", j, i)
			}
		}
		c.send("unlock 7\r\n")
		c.expect("RELEASED 0x7")
	}
}

// tableChurn reads the service's create and free counts.
func tableChurn(svc *gls.Service) (creates, frees uint64) {
	st := svc.ShardStats()[0]
	return st.Creates, st.Frees
}

// TestManyKeysLeaveNothingBehind drives 10 000 distinct keys through
// trylock+unlock on one session. At rest the server must hold nothing per
// key: no lock object, no lease record, no grant — and the table's counters
// show the wire path's whole table traffic, one create and one free per
// key (the key is resolved once, by the trylock; the unlock and the free
// go through the grant's pin).
func TestManyKeysLeaveNothingBehind(t *testing.T) {
	srv, addr := newTestServer(t, Options{})
	c := dialT(t, addr)
	const n, batch = 10000, 100
	creates0, frees0 := tableChurn(srv.Service())
	for base := 1; base <= n; base += batch {
		var req strings.Builder
		for k := base; k < base+batch; k++ {
			fmt.Fprintf(&req, "trylock %d\r\nunlock %d\r\n", k, k)
		}
		c.send(req.String())
		for k := base; k < base+batch; k++ {
			c.expect("GRANTED " + fmtKey(uint64(k)))
			c.expect("RELEASED " + fmtKey(uint64(k)))
		}
	}
	if got := srv.Service().Locks(); got != 0 {
		t.Errorf("Locks() = %d after every key was released, want 0", got)
	}
	st := srv.Stats()
	if st.Leases != 0 || st.Held != 0 {
		t.Errorf("Leases = %d, Held = %d at rest, want 0 and 0", st.Leases, st.Held)
	}
	if st.Grants != n || st.Releases != n {
		t.Errorf("Grants = %d, Releases = %d, want %d each", st.Grants, st.Releases, n)
	}
	creates, frees := tableChurn(srv.Service())
	if creates-creates0 != n || frees-frees0 != n {
		t.Errorf("table creates/frees = %d/%d for %d trylock+unlock pairs, want one of each per pair",
			creates-creates0, frees-frees0, n)
	}
}

// TestTokenSurvivesIdleReap pins fencing monotonicity to the one thing that
// outlives a reaped key, the service's sequence floor: a key's token keeps
// rising across its own reap, and across a reap of another key in between.
func TestTokenSurvivesIdleReap(t *testing.T) {
	srv, addr := newTestServer(t, Options{})
	svc := srv.Service()
	c := dialT(t, addr)
	const a, b = 7, 8
	cycle := func(key uint64) uint64 {
		t.Helper()
		c.send(fmt.Sprintf("trylock %d\r\n", key))
		tok := tokenOf(t, c.expect("GRANTED "+fmtKey(key)), 2)
		c.send(fmt.Sprintf("unlock %d\r\n", key))
		c.expect("RELEASED " + fmtKey(key))
		if got := svc.Locks(); got != 0 {
			t.Fatalf("Locks() = %d after unlocking the only key in use; idle key not reaped", got)
		}
		return tok
	}
	a1 := cycle(a)
	a2 := cycle(a)
	if a2 <= a1 {
		t.Fatalf("token of key %#x fell across its reap: %d then %d", a, a1, a2)
	}
	b1 := cycle(b)
	a3 := cycle(a)
	b2 := cycle(b)
	if a3 <= a2 || b2 <= b1 {
		t.Fatalf("tokens fell across a neighbour's reap: %#x %d→%d, %#x %d→%d", a, a2, a3, b, b1, b2)
	}
	// An unmapped key reports the floor: no live grant is above it,
	// every later grant will be.
	c.send(fmt.Sprintf("token %d\r\n", a))
	floor := tokenOf(t, c.expect("TOKEN "+fmtKey(a)), 2)
	if a4 := cycle(a); floor < a3 || floor >= a4 {
		t.Fatalf("token of unmapped key = %d, want in [last grant %d, next grant %d)", floor, a3, a4)
	}
}

// TestLeaseHeapTracksHeldLeases: the expiry heap holds one record per held
// lease — a renew moves the lease's record, a release takes it out, and a
// dead session's records leave with the sweep that releases its locks.
func TestLeaseHeapTracksHeldLeases(t *testing.T) {
	srv, addr := newTestServer(t, Options{SweepInterval: 10 * time.Millisecond})
	c := dialT(t, addr)
	wantLeases := func(want int, when string) {
		t.Helper()
		if got := srv.Stats().Leases; got != want {
			t.Fatalf("Leases = %d %s, want %d", got, when, want)
		}
	}
	c.send("trylock 7 60000\r\n")
	c.expect("GRANTED 0x7")
	for i := 0; i < 3; i++ {
		c.send("renew 7 60000\r\n")
		c.expect("RENEWED 0x7")
	}
	wantLeases(1, "after one grant and three renews")
	c.send("trylock 8 60000\r\n")
	c.expect("GRANTED 0x8")
	wantLeases(2, "with two keys held")
	c.send("unlock 7\r\n")
	c.expect("RELEASED 0x7")
	wantLeases(1, "after an unlock")

	_ = c.nc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Held != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dead session's lease not swept: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	wantLeases(0, "after the holder died")
	if got := srv.Service().Locks(); got != 0 {
		t.Fatalf("Locks() = %d after the holder died, want 0", got)
	}
}
