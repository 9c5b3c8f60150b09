package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The read baton's rules, each pinned on a Conn whose peer is scripted:
// the reply travels with the baton, a dead connection is read by nobody
// again, a stray reply behind a round trip's own fails the connection, an
// idle Conn still reads, and nothing is left running after the end.

// pipeConn opens a Conn over an in-memory pipe to a scripted peer, which
// answers "session" itself and every later request line (without its
// CRLF) with answer's reply, written in one piece; an empty reply answers
// nothing, and hangUp closes the peer's end instead. The test may write to
// or close the returned peer end itself.
func pipeConn(t *testing.T, answer func(req string) (reply string, hangUp bool)) (*Conn, net.Conn) {
	t.Helper()
	mine, theirs := net.Pipe()
	go func() {
		br := bufio.NewReader(theirs)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			req := strings.TrimRight(line, "\r\n")
			if req == "session" {
				_, _ = theirs.Write([]byte("SESSION 1\r\n"))
				continue
			}
			reply, hangUp := answer(req)
			if hangUp {
				_ = theirs.Close()
				return
			}
			if reply != "" {
				_, _ = theirs.Write([]byte(reply))
			}
		}
	}()
	c, err := open(mine)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() {
		_ = c.Close()
		_ = theirs.Close()
	})
	return c, theirs
}

// pong answers a ping with PONG and a wait with QUEUED, and nothing else.
func pong(req string) (string, bool) {
	switch {
	case req == "ping":
		return "PONG\r\n", false
	case strings.HasPrefix(req, "wait "):
		return "QUEUED " + strings.Fields(req)[1] + "\r\n", false
	}
	return "", false
}

// within runs f and fails the test if it has not returned after d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

// readerHolds waits until the reader goroutine has taken the baton on an
// idle Conn: no call is in flight, so the holder can only be the reader.
func readerHolds(t *testing.T, c *Conn) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.baton.Load()&1 == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the reader goroutine never took the baton of an idle Conn")
		}
	}
}

// readerGone waits until c's reader goroutine has ended, then checks that
// it left its idle timer stopped.
func readerGone(t *testing.T, c *Conn) {
	t.Helper()
	frame := fmt.Sprintf("(*Conn).reader(%p", c)
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		running := false
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			// A reader goroutine that has not run yet shows open's go
			// wrapper, not its own frame.
			unstarted := strings.Contains(g, "created by gls/client.open") && !strings.Contains(g, "(*Conn).reader(")
			running = running || unstarted || strings.Contains(g, frame)
		}
		if !running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the reader goroutine still runs 5 s after the connection ended")
		}
	}
	if c.idle.Stop() {
		t.Fatal("the reader goroutine ended with its idle timer armed")
	}
}

// TestReplyCarriesTheBaton: when the reader goroutine answers a round trip
// and stops reading, the baton goes with the reply. While the reply waits
// on syncCh the baton is taken, so a round trip cannot find it free and
// read the socket for a reply already delivered (it would wait forever);
// the round trip that receives it is the one that frees it. The test plays
// that round trip by hand, between its request and its receive.
func TestReplyCarriesTheBaton(t *testing.T) {
	c, _ := pipeConn(t, pong)
	readerHolds(t, c)
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	if _, err := c.bw.WriteString("ping\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := c.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(c.syncCh) == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the reader never delivered the PONG")
		}
	}
	if c.takeBaton() {
		t.Fatal("the baton was free while the reply waited on syncCh")
	}
	r := <-c.syncCh
	if !r.is("PONG", 0) || !c.handed {
		t.Fatalf("received %q, handed %v; want PONG with the baton", r, c.handed)
	}
	c.handed = false
	c.releaseBaton()
}

// TestRoundTripAfterHandBack: round trips around the reader's hand-over
// all get their own reply. The first finds the baton with the reader,
// which answers it and hands the baton over; the next ones take it free.
func TestRoundTripAfterHandBack(t *testing.T) {
	c, _ := pipeConn(t, pong)
	for i := 0; i < 3; i++ {
		readerHolds(t, c)
		for j := 0; j < 3; j++ {
			within(t, 5*time.Second, "Ping", func() {
				if err := c.Ping(); err != nil {
					t.Errorf("Ping %d.%d: %v", i, j, err)
				}
			})
		}
	}
}

// TestDeadConnReadsNoMore: once the connection has died, nothing reads it
// again. The peer hangs up while the reader goroutine holds the baton (a
// Lock is queued) or while a round trip waits for its reply; either way
// the connection is torn down once — a second teardown would close done
// twice and panic — every call then returns ErrClosed at once, the baton
// stays taken, and the reader goroutine ends with its timer stopped.
func TestDeadConnReadsNoMore(t *testing.T) {
	for _, queued := range []bool{true, false} {
		t.Run(fmt.Sprintf("lockQueued=%v", queued), func(t *testing.T) {
			c, _ := pipeConn(t, func(req string) (string, bool) {
				if req == "ping" {
					return "", true
				}
				return pong(req)
			})
			locked := make(chan error, 1)
			if queued {
				go func() {
					_, err := c.Lock(context.Background(), 7, 0, 0)
					locked <- err
				}()
				for deadline := time.Now().Add(5 * time.Second); !c.readerWaiting(); time.Sleep(100 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatal("the reader never took the baton for the queued Lock")
					}
				}
			}
			within(t, 5*time.Second, "Ping to a peer that hangs up", func() {
				if err := c.Ping(); !errors.Is(err, ErrClosed) {
					t.Errorf("Ping as the peer hangs up: %v, want ErrClosed", err)
				}
			})
			if queued {
				if err := <-locked; !errors.Is(err, ErrClosed) {
					t.Errorf("Lock queued as the peer hangs up: %v, want ErrClosed", err)
				}
			}
			for i := 0; i < 3; i++ {
				c.wake()
				within(t, time.Second, "Ping on a dead Conn", func() {
					if err := c.Ping(); !errors.Is(err, ErrClosed) {
						t.Errorf("Ping on a dead Conn: %v, want ErrClosed", err)
					}
				})
			}
			if c.takeBaton() {
				t.Fatal("the baton of a dead Conn is free")
			}
			readerGone(t, c)
			if err := c.Close(); err != nil {
				t.Fatalf("Close of a dead Conn: %v", err)
			}
		})
	}
}

// readerWaiting reports whether a wait is registered and the reader
// goroutine holds the baton for it.
func (c *Conn) readerWaiting() bool {
	c.mu.Lock()
	n := len(c.waits)
	c.mu.Unlock()
	return n > 0 && c.wanted.Load() && c.baton.Load()&1 == 1 && c.reqMu.state.Load() == 0
}

// TestStrayReplyBehindOwnReply: a second synchronous reply in the same
// read as a round trip's own is one nobody asked for, and the holder must
// route it before it lets the baton go or reads on: left in the buffer, or
// read after the first reply was taken, the next round trip would take it
// as its reply and the stream would stay out of step. The peer answers one
// ping with two PONGs in one write. Whoever holds the baton (the round
// trip, the reader of an idle Conn, or the reader kept by a queued Lock),
// the connection fails with the unsolicited reply, at the latest at the
// next call, which must not succeed.
func TestStrayReplyBehindOwnReply(t *testing.T) {
	for _, holder := range []string{"false", "true", "queuedLock"} {
		t.Run("readerHolds="+holder, func(t *testing.T) {
			answered := false
			c, _ := pipeConn(t, func(req string) (string, bool) {
				if req == "ping" && !answered {
					answered = true
					return "PONG\r\nPONG\r\n", false
				}
				return pong(req)
			})
			locked := make(chan error, 1)
			switch holder {
			case "true":
				readerHolds(t, c)
			case "queuedLock":
				go func() {
					_, err := c.Lock(context.Background(), 7, 0, 0)
					locked <- err
				}()
				for deadline := time.Now().Add(5 * time.Second); !c.readerWaiting(); time.Sleep(100 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatal("the reader never took the baton for the queued Lock")
					}
				}
			}
			var errs [2]error
			within(t, 5*time.Second, "two Pings after a doubled PONG", func() {
				errs[0] = c.Ping()
				errs[1] = c.Ping()
			})
			if errs[1] == nil {
				t.Fatal("the Ping after a doubled PONG succeeded: the stray PONG was taken as its reply")
			}
			for i, err := range errs {
				if err != nil && (!errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "unsolicited reply")) {
					t.Fatalf("Ping %d: %v, want ErrClosed (unsolicited reply)", i+1, err)
				}
			}
			if holder == "queuedLock" {
				if err := <-locked; !errors.Is(err, ErrClosed) {
					t.Fatalf("Lock queued as the stream went out of step: %v, want ErrClosed", err)
				}
			}
			readerGone(t, c)
		})
	}
}

// TestExpiredWithNoCallInFlight: an EXPIRED notice reaches OnExpired on a
// Conn that has no call in flight, through the reader goroutine taking the
// baton of an idle Conn; and one that follows a round trip's reply in the
// same read is routed by that round trip before it returns.
func TestExpiredWithNoCallInFlight(t *testing.T) {
	c, peer := pipeConn(t, func(req string) (string, bool) {
		if req == "ping" {
			return "PONG\r\nEXPIRED 0x9 4\r\n", false
		}
		return "", false
	})
	var mu sync.Mutex
	var got [][2]uint64
	c.OnExpired(func(key, token uint64) {
		mu.Lock()
		got = append(got, [2]uint64{key, token})
		mu.Unlock()
	})
	seen := func() [][2]uint64 {
		mu.Lock()
		defer mu.Unlock()
		return append([][2]uint64(nil), got...)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if g := seen(); len(g) != 1 || g[0] != [2]uint64{9, 4} {
		t.Fatalf("after the Ping answered by PONG and EXPIRED: OnExpired saw %v, want [[9 4]]", g)
	}
	time.Sleep(10 * lingerWindow) // idle: no call in flight
	if _, err := peer.Write([]byte("EXPIRED 0x7 3\r\n")); err != nil {
		t.Fatalf("peer write: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(seen()) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("an EXPIRED notice to an idle Conn never reached OnExpired")
		}
	}
	if g := seen(); len(g) != 2 || g[1] != [2]uint64{7, 3} {
		t.Fatalf("OnExpired saw %v, want [9 4] then [7 3]", g)
	}
}

// TestClosedConnLeavesNothing: Close leaves no reader goroutine and no
// armed timer, whether the reader held the baton (idle Conn), was waiting
// out its idle timer (just after a round trip), or a Lock was queued.
func TestClosedConnLeavesNothing(t *testing.T) {
	for _, state := range []string{"idle", "busy", "lockQueued"} {
		t.Run(state, func(t *testing.T) {
			c, _ := pipeConn(t, pong)
			locked := make(chan error, 1)
			switch state {
			case "idle":
				readerHolds(t, c)
			case "busy":
				if err := c.Ping(); err != nil {
					t.Fatalf("Ping: %v", err)
				}
			case "lockQueued":
				go func() {
					_, err := c.Lock(context.Background(), 7, 0, 0)
					locked <- err
				}()
				for deadline := time.Now().Add(5 * time.Second); !c.readerWaiting(); time.Sleep(100 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatal("the reader never took the baton for the queued Lock")
					}
				}
			}
			if err := c.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			readerGone(t, c)
			if state == "lockQueued" {
				if err := <-locked; !errors.Is(err, ErrClosed) {
					t.Fatalf("Lock queued across Close: %v, want ErrClosed", err)
				}
			}
			if err := c.Ping(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Ping after Close: %v, want ErrClosed", err)
			}
		})
	}
}

// TestReaderAllocatesNothing: neither a round trip that reads its own
// reply nor the reader goroutine allocates, whether it ticks beside busy
// round trips or sits on the baton of an idle Conn. The peer, over
// loopback TCP (an in-memory pipe allocates now and then on its own
// account), answers every line with PONG out of one buffer and allocates
// nothing either, so the counts are process-wide mallocs; the bound allows
// the runtime a few of its own (sudogs, after a collection empties their
// cache) in the quietest of five.
func TestReaderAllocatesNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		session, pong := []byte("SESSION 1\r\n"), []byte("PONG\r\n")
		for first := true; ; first = false {
			if _, err := br.ReadSlice('\n'); err != nil {
				return
			}
			out := pong
			if first {
				out = session
			}
			if _, err := nc.Write(out); err != nil {
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c, err := open(nc)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ { // buffers and sockets reach their size
		if err := c.Ping(); err != nil {
			t.Fatalf("Ping: %v", err)
		}
	}
	const bound = 4
	busy, idle := ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	runtime.GC() // what earlier tests left is not this test's to count
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		for start := time.Now(); time.Since(start) < 10*lingerWindow; {
			if err := c.Ping(); err != nil {
				t.Fatalf("Ping: %v", err)
			}
		}
		runtime.ReadMemStats(&after)
		busy = min(busy, after.Mallocs-before.Mallocs)
		runtime.ReadMemStats(&before)
		time.Sleep(10 * lingerWindow)
		runtime.ReadMemStats(&after)
		idle = min(idle, after.Mallocs-before.Mallocs)
	}
	if busy > bound || idle > bound {
		t.Fatalf("the quietest of five 10 ms spells allocated %d objects with round trips back to back and %d idle, want <= %d each", busy, idle, bound)
	}
	t.Logf("quietest spells: %d objects busy, %d idle", busy, idle)
}

// lockPeer is a scripted peer for a Lock of key 7 granted with token 5:
// it answers the wait with QUEUED, and with the GRANT behind it in the
// same piece if inOnePiece, a token request with TOKEN 0x7 5, and an
// unlock with RELEASED 0x7.
func lockPeer(inOnePiece bool) func(string) (string, bool) {
	return func(req string) (string, bool) {
		f := strings.Fields(req)
		switch f[0] {
		case "wait":
			if inOnePiece {
				return "QUEUED " + f[1] + "\r\nGRANT " + f[1] + " 0x7 5 10000\r\n", false
			}
			return "QUEUED " + f[1] + "\r\n", false
		case "token":
			return "TOKEN 0x7 5\r\n", false
		case "unlock":
			return "RELEASED 0x7\r\n", false
		}
		return pong(req)
	}
}

// lock7 and token7 run Lock and Token on key 7 and check the token.
func lock7(t *testing.T, c *Conn) {
	t.Helper()
	within(t, 5*time.Second, "Lock", func() {
		if tok, err := c.Lock(context.Background(), 7, 0, 0); err != nil || tok != 5 {
			t.Errorf("Lock = %d, %v; want token 5", tok, err)
		}
	})
}

func token7(t *testing.T, c *Conn) {
	t.Helper()
	if tok, err := c.Token(7); err != nil || tok != 5 {
		t.Fatalf("Token = %d, %v; want 5", tok, err)
	}
}

// unqueued checks that the Lock just returned, whose GRANT came in the
// read that carried its QUEUED, left the reader goroutine nothing to do:
// wanted is clear, no kick is pending and no wait end was stamped, so no
// linger started.
func unqueued(t *testing.T, c *Conn, what string) {
	t.Helper()
	c.mu.Lock()
	stamped := !c.waitEnd.IsZero()
	c.mu.Unlock()
	if c.wanted.Load() || len(c.kick) != 0 || stamped {
		t.Fatalf("%s: wanted %v, %d kicks pending, wait end stamped %v; want the reader left alone by a GRANT that came with its QUEUED", what, c.wanted.Load(), len(c.kick), stamped)
	}
}

// readsOwn runs the round trip f on a Conn with no wait outstanding and
// checks that it read its own reply: it found the baton free and it took
// and freed it, so the word moved by two. The reader goroutine takes an
// idle Conn's baton only once its ticks have seen no round trip for a
// whole lingerWindow; if it did so just before f (the test was held up
// that long), it must have answered f and handed the baton over with the
// reply, leaving it free.
func readsOwn(t *testing.T, c *Conn, what string, f func()) {
	t.Helper()
	v := c.baton.Load()
	f()
	after := c.baton.Load()
	if v&1 == 0 && after != v+2 || v&1 == 1 && after&1 == 1 {
		t.Fatalf("%s: baton word %d before the round trip, %d after; want the round trip to read its own reply", what, v, after)
	}
}

// TestGrantInTheWaitsRead: a GRANT routed before its wait's QUEUED round
// trip has returned (the peer sent QUEUED and GRANT in one piece) is not a
// wait that queued, whichever goroutine routes it. If the wait's own round
// trip took the baton, it routes the GRANT before it lets the baton go; if
// the reader goroutine held the baton of an idle Conn, it routes the GRANT
// buffered behind the QUEUED before it decides whether to go on reading.
// Either way the reader is not asked for the baton, no linger starts, and
// the baton is free once the Lock returns.
func TestGrantInTheWaitsRead(t *testing.T) {
	for _, readerFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("readerHolds=%v", readerFirst), func(t *testing.T) {
			c, _ := pipeConn(t, lockPeer(true))
			for i := 0; i < 3; i++ {
				if readerFirst {
					readerHolds(t, c)
					lock7(t, c)
					if v := c.baton.Load(); v&1 != 0 {
						t.Fatalf("Lock %d: the baton is held (word %d): the reader kept it after the QUEUED", i, v)
					}
				} else {
					// A Ping leaves the baton free: it reads its own reply,
					// or the reader answers it and hands the baton over.
					within(t, 5*time.Second, "Ping", func() {
						if err := c.Ping(); err != nil {
							t.Errorf("Ping: %v", err)
						}
					})
					readsOwn(t, c, fmt.Sprintf("Lock %d", i), func() { lock7(t, c) })
				}
				unqueued(t, c, fmt.Sprintf("Lock %d", i))
			}
		})
	}
}

// TestFreeKeyLockOnIdleConn: on a Conn idle long enough for the reader
// goroutine to hold the baton, Lock+Token+Unlock on a free key hands the
// baton back for good. The reader answers the wait's QUEUED, routes the
// GRANT behind it, and passes the baton over with the reply; the Token and
// Unlock after it, and every later op, read their own replies, as on a
// fresh Conn. (A reader that kept the baton for the GRANT would start its
// linger, and while ops came less than lingerWindow apart every reply
// would reach its caller through syncCh.)
func TestFreeKeyLockOnIdleConn(t *testing.T) {
	c, _ := pipeConn(t, lockPeer(true))
	readerHolds(t, c)
	for i := 0; i < 3; i++ {
		lock7(t, c)
		unqueued(t, c, fmt.Sprintf("op %d: Lock", i))
		readsOwn(t, c, fmt.Sprintf("op %d: Token", i), func() { token7(t, c) })
		readsOwn(t, c, fmt.Sprintf("op %d: Unlock", i), func() {
			if err := c.Unlock(7); err != nil {
				t.Fatalf("Unlock: %v", err)
			}
		})
		if c.wanted.Load() {
			t.Fatalf("op %d: wanted set after the Unlock", i)
		}
	}
}

// TestQueuedWaitKeepsTheReader: free-key Locks on a Conn where another
// wait has queued leave the reader goroutine holding the baton for that
// wait. Whether a wait queued is marked on the wait itself, so a GRANT
// routed with its QUEUED ends only its own wait, and every reply meanwhile
// comes through the reader. The queued wait's GRANT, sent with no call in
// flight, reaches its Lock.
func TestQueuedWaitKeepsTheReader(t *testing.T) {
	free := lockPeer(true)
	c, peer := pipeConn(t, func(req string) (string, bool) {
		if f := strings.Fields(req); f[0] == "wait" && f[2] == "0x8" {
			return "QUEUED " + f[1] + "\r\n", false // key 8 is held elsewhere
		}
		return free(req)
	})
	queued := make(chan error, 1)
	go func() {
		tok, err := c.Lock(context.Background(), 8, 0, 0)
		if err == nil && tok != 6 {
			err = fmt.Errorf("token %d, want 6", tok)
		}
		queued <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); !c.readerWaiting(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the reader never took the baton for the queued Lock")
		}
	}
	for i := 0; i < 3; i++ {
		lock7(t, c)
		token7(t, c)
		if err := c.Unlock(7); err != nil {
			t.Fatalf("Unlock: %v", err)
		}
		if v := c.baton.Load(); v&1 == 0 || !c.wanted.Load() {
			t.Fatalf("op %d on key 7: baton word %d, wanted %v; want the reader holding the baton for the queued wait", i, v, c.wanted.Load())
		}
	}
	if _, err := peer.Write([]byte("GRANT 1 0x8 6 10000\r\n")); err != nil {
		t.Fatalf("peer write: %v", err)
	}
	select {
	case err := <-queued:
		if err != nil {
			t.Fatalf("queued Lock: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the queued Lock's GRANT was never delivered")
	}
}

// TestGrantReadByTheReader: a GRANT that comes after the wait's round
// trip is read by the reader goroutine, which holds the baton for it,
// delivers it, and keeps the baton until a synchronous reply finds the
// wait over for lingerWindow; that reply's round trip gets the baton with
// it, and wanted is clear.
func TestGrantReadByTheReader(t *testing.T) {
	c, peer := pipeConn(t, lockPeer(false))
	go func() {
		for deadline := time.Now().Add(5 * time.Second); !c.readerWaiting(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				return // the Lock below times out and says so
			}
		}
		_, _ = peer.Write([]byte("GRANT 1 0x7 5 10000\r\n"))
	}()
	lock7(t, c)
	if v := c.baton.Load(); v&1 == 0 || !c.wanted.Load() {
		t.Fatalf("after a GRANT the reader read: baton word %d, wanted %v; want the reader holding the baton", v, c.wanted.Load())
	}
	token7(t, c)
	time.Sleep(2 * lingerWindow)
	token7(t, c) // this reply finds the wait over for lingerWindow
	if v := c.baton.Load(); v&1 != 0 || c.wanted.Load() {
		t.Fatalf("a reply %v after the GRANT: baton word %d, wanted %v; want the baton handed over and wanted clear", 2*lingerWindow, v, c.wanted.Load())
	}
}
