package server

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// shortenWaitTimeout bounds every wait that carries no timeout by d for the
// rest of the test. Call it before the test's server starts.
func shortenWaitTimeout(t *testing.T, d time.Duration) {
	saved := defaultWaitTimeout
	defaultWaitTimeout = d
	t.Cleanup(func() { defaultWaitTimeout = saved })
}

// renewUntil keeps c's lease on key alive — a renew every 20 ms for a 200 ms
// lease — until stop closes; the returned channel closes once it has.
func renewUntil(c *tconn, key uint64, stop <-chan struct{}) <-chan struct{} {
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if _, err := fmt.Fprintf(c.nc, "renew %d 200\r\n", key); err != nil {
				return // the server closed under us (the Close case)
			}
			_ = c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			line, err := c.br.ReadString('\n')
			if err != nil {
				return
			}
			if !strings.HasPrefix(line, "RENEWED") {
				c.t.Errorf("holder: renew answered %q", line)
				return
			}
		}
	}()
	return stopped
}

// TestAbandonedWaitHoldsNothing parks a wait on key 2 behind a holder that
// keeps renewing it, so the wait sits in the key's queue with no grant, no
// lease and no owner to its name, and then abandons it each way a wait can
// be abandoned. Every one must end the wait within a second — however long
// the lease ahead of it is renewed — and leave no acquisition outstanding:
// once the holder lets go, key 2 is free to the next taker and no key stays
// mapped.
func TestAbandonedWaitHoldsNothing(t *testing.T) {
	abandon := []struct {
		name    string
		timeout time.Duration // the wait bound, if shortened
		do      func(srv *Server, b *tconn)
		want    string // the wait's terminal line, if it gets one
	}{
		{name: "cancel", want: "CANCELLED 8", do: func(_ *Server, b *tconn) {
			b.send("cancel 8\r\n")
			b.expect("OK cancel 8")
		}},
		{name: "session death", do: func(_ *Server, b *tconn) { _ = b.nc.Close() }},
		{name: "timeout", timeout: 300 * time.Millisecond, want: "TIMEOUT 8", do: func(*Server, *tconn) {}},
		{name: "close", do: func(srv *Server, _ *tconn) { srv.Close() }},
	}
	for _, ab := range abandon {
		t.Run(ab.name, func(t *testing.T) {
			if ab.timeout > 0 {
				shortenWaitTimeout(t, ab.timeout)
			}
			srv, addr := newTestServer(t, Options{SweepInterval: 10 * time.Millisecond})
			a, b, c := dialT(t, addr), dialT(t, addr), dialT(t, addr)
			a.send("trylock 2 200\r\n")
			a.expect("GRANTED 0x2")
			stop := make(chan struct{})
			renewing := renewUntil(a, 2, stop)
			stopRenewing := sync.OnceFunc(func() { close(stop); <-renewing })
			defer stopRenewing()

			b.send("wait 8 2\r\n")
			b.expect("QUEUED 8")
			queued := time.Now()
			// Nothing on the wire shows when the wait, past LockCancel's few
			// spins, has parked in key 2's queue; give it the time. An abort
			// that comes sooner has to leave nothing behind all the same.
			time.Sleep(20 * time.Millisecond)

			start := time.Now()
			if ab.timeout > 0 {
				start = queued.Add(ab.timeout)
			}
			ab.do(srv, b)
			if ab.want != "" {
				b.expect(ab.want)
			}
			for srv.Stats().Waiting != 0 && time.Since(start) < time.Second {
				time.Sleep(time.Millisecond)
			}
			if d := time.Since(start); d >= time.Second {
				t.Fatalf("the wait was still there %v after it was abandoned: %+v", d, srv.Stats())
			}
			if ab.name == "close" {
				if st := srv.Stats(); st.Waiting != 0 || st.Held != 0 || st.Leases != 0 {
					t.Fatalf("after Close: %+v", st)
				}
				return
			}
			if st := srv.Stats(); st.Waiting != 0 || st.Held != 1 || st.Leases != 1 {
				t.Errorf("stats %+v, want waiting=0 held=1 leases=1", st)
			}
			// The holder lets go: a wait still queued would be handed key 2.
			stopRenewing()
			a.send("unlock 2\r\n")
			a.expect("RELEASED 0x2")
			c.send("trylock 2\r\n")
			c.expect("GRANTED 0x2")
			c.send("unlock 2\r\n")
			c.expect("RELEASED 0x2")
			if n := srv.Service().Locks(); n != 0 {
				t.Errorf("%d keys mapped after every release, want 0", n)
			}
		})
	}
}

// TestBatchOfOneIsTheSingleOp drives one single-key script — a grant, a
// refusal of each kind, a cancel, a timeout, a queued grant — and requires its
// replies in order, rising fencing tokens, and exactly the Stats the script
// implies. Its name is from when a one-key batch spelling ran the same script
// beside it; glsd grants one key per request, so the single form is all left.
func TestBatchOfOneIsTheSingleOp(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		shortenWaitTimeout(t, 500*time.Millisecond)
		srv, addr := newTestServer(t, Options{QueueDepth: 2, SweepInterval: 10 * time.Millisecond})
		h, w, x := dialT(t, addr), dialT(t, addr), dialT(t, addr)

		h.send("trylock 7\r\n")
		first := tokenOf(t, h.expect("GRANTED 0x7"), 2) // GRANTED key token ttl
		h.send("trylock 7\r\n")
		h.expect("ERR held")
		h.send("wait 1 7\r\n")
		h.expect("ERR held")
		w.send("trylock 7\r\n")
		w.expect("BUSY 0x7")

		w.send("wait 5 7\r\n")
		w.expect("QUEUED 5")
		w.send("wait 5 9\r\n")
		w.expect("ERR dupid")
		x.send("wait 6 7\r\n")
		x.expect("QUEUED 6")
		x.send("wait 7 9\r\n") // a free key, refused all the same: the bound is on waits
		x.expect("ERR overload")

		w.send("cancel 5\r\n")
		w.expect("OK cancel 5")
		w.expect("CANCELLED 5")
		x.expect("TIMEOUT 6") // nobody cancels it: the wait bound does

		// A queued grant: QUEUED is on the wire before the terminal line.
		w.send("wait 8 7\r\n")
		w.expect("QUEUED 8")
		h.send("unlock 7\r\n")
		h.expect("RELEASED 0x7")
		if second := tokenOf(t, w.expect("GRANT 8 0x7"), 3); second <= first { // GRANT id key token ttl
			t.Errorf("queued grant's token %d not above the first grant's %d", second, first)
		}
		w.send("unlock 7\r\n")
		w.expect("RELEASED 0x7")

		want := Stats{Sessions: 3, SessionsTotal: 3, Grants: 2, Releases: 2, Timeouts: 1, Cancels: 1, Overloads: 1}
		if st := srv.Stats(); st != want {
			t.Errorf("stats %+v, want %+v", st, want)
		}
	})
}

// writeLog records every write the server makes on the connections it
// accepts: the bytes, and whether a wait's goroutine made it.
type writeLog struct {
	mu     sync.Mutex
	writes []loggedWrite
}

type loggedWrite struct {
	data     string
	fromWait bool // runWait's goroutine wrote it, not the session's reader
}

// with returns the writes that carry a line starting with one of verbs.
func (l *writeLog) with(verbs ...string) []loggedWrite {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []loggedWrite
	for _, w := range l.writes {
		for _, v := range verbs {
			if strings.HasPrefix(w.data, v) || strings.Contains(w.data, "\n"+v) {
				out = append(out, w)
				break
			}
		}
	}
	return out
}

type loggedConn struct {
	net.Conn
	log *writeLog
}

func (c loggedConn) Write(p []byte) (int, error) {
	stack := make([]byte, 4096)
	stack = stack[:runtime.Stack(stack, false)]
	c.log.mu.Lock()
	c.log.writes = append(c.log.writes, loggedWrite{string(p), bytes.Contains(stack, []byte("(*Server).runWait"))})
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

type loggedListener struct {
	net.Listener
	log *writeLog
}

func (l loggedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return loggedConn{c, l.log}, nil
}

// TestUncontendedWaitOneWrite: a wait on a free key is answered by the
// session's reader itself, QUEUED and GRANT in one write, and no wait
// goroutine runs for it; a wait behind a holder still gets QUEUED at once
// and its GRANT, from the wait's goroutine, only once the holder lets go,
// with a larger token; and admission is unchanged, so a wait on a free key
// over a full QueueDepth is refused with ERR overload. The Stats are exact
// after each step.
func TestUncontendedWaitOneWrite(t *testing.T) {
	srv, err := New(Options{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	log := &writeLog{}
	go func() { _ = srv.Serve(loggedListener{ln, log}) }()
	addr := ln.Addr().String()
	h, w, x := dialT(t, addr), dialT(t, addr), dialT(t, addr)
	for _, c := range []*tconn{h, w, x} { // each session is registered once it answers
		c.send("ping\r\n")
		c.expect("PONG")
	}
	stats := func(step string, want Stats) {
		t.Helper()
		want.Sessions, want.SessionsTotal = 3, 3
		want.Leases = int(want.Held)
		if st := srv.Stats(); st != want {
			t.Fatalf("after %s: stats %+v, want %+v", step, st, want)
		}
	}

	// Uncontended: one write, from the reader, carrying both lines.
	w.send("wait 1 9 5000\r\n")
	w.expect("QUEUED 1")
	first := tokenOf(t, w.expect("GRANT 1 0x9"), 3)
	want := "QUEUED 1\r\nGRANT 1 0x9 " + strconv.FormatUint(first, 10) + " 5000\r\n"
	if ws := log.with("QUEUED 1", "GRANT 1"); len(ws) != 1 || ws[0].data != want || ws[0].fromWait {
		t.Fatalf("an uncontended wait was answered in %d writes %+v; want one, %q, from the session's reader", len(ws), ws, want)
	}
	stats("an uncontended wait", Stats{Held: 1, Grants: 1})

	// Contended: QUEUED now, GRANT from the wait's goroutine after the unlock.
	h.send("wait 2 9\r\n")
	h.expect("QUEUED 2")
	waitParked(t, 1)
	if ws := log.with("QUEUED 2", "GRANT 2"); len(ws) != 1 || ws[0].data != "QUEUED 2\r\n" {
		t.Fatalf("a wait behind a holder was answered %+v; want QUEUED alone", ws)
	}
	stats("a wait behind a holder", Stats{Held: 1, Waiting: 1, Grants: 1})

	// Admission first: over a full QueueDepth even a free key is refused.
	x.send("wait 3 11\r\n")
	x.expect("ERR overload")
	stats("a refused wait", Stats{Held: 1, Waiting: 1, Grants: 1, Overloads: 1})

	w.send("unlock 9\r\n")
	w.expect("RELEASED 0x9")
	if second := tokenOf(t, h.expect("GRANT 2 0x9"), 3); second <= first {
		t.Fatalf("the queued grant's token %d is not above the first's %d", second, first)
	}
	if ws := log.with("GRANT 2"); len(ws) != 1 || !ws[0].fromWait || strings.Contains(ws[0].data, "QUEUED") {
		t.Fatalf("the queued GRANT was written %+v; want one write of its own, from the wait's goroutine", ws)
	}
	h.send("unlock 9\r\n")
	h.expect("RELEASED 0x9")
	stats("both unlocks", Stats{Grants: 2, Releases: 2, Overloads: 1})
}
