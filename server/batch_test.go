package server

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

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

// TestAbandonedBatchHoldsNothing parks a lockmany over {1, 2} behind a
// holder that keeps renewing key 2, so the batch sits on key 1 with no
// grant, no lease and no owner to its name, and then abandons it each way a
// wait can be abandoned. Every one must end the batch within a second —
// however long the lease ahead of it is renewed — and leave key 1 free, no
// acquisition outstanding, and no key mapped but the holder's.
func TestAbandonedBatchHoldsNothing(t *testing.T) {
	abandon := []struct {
		name    string
		timeout time.Duration // Options.DefaultWaitTimeout
		do      func(srv *Server, b *tconn)
		want    string // the batch's terminal line, if it gets one
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
			srv, addr := newTestServer(t, Options{SweepInterval: 10 * time.Millisecond, DefaultWaitTimeout: ab.timeout})
			a, b, c := dialT(t, addr), dialT(t, addr), dialT(t, addr)
			a.send("trylock 2 200\r\n")
			a.expect("GRANTED 0x2")
			stop := make(chan struct{})
			renewing := renewUntil(a, 2, stop)
			defer func() { close(stop); <-renewing }()

			b.send("lockmany 8 0 1 2\r\n")
			b.expect("QUEUED 8")
			queued := time.Now()
			// The batch is where the bug lives once it has taken key 1.
			for {
				c.send("trylock 1\r\n")
				if strings.HasPrefix(c.recv(), "BUSY") {
					break
				}
				c.send("unlock 1\r\n")
				c.expect("RELEASED 0x1")
				time.Sleep(time.Millisecond)
			}

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
				t.Fatalf("the batch was still there %v after it was abandoned: %+v", d, srv.Stats())
			}
			if ab.name == "close" {
				if st := srv.Stats(); st.Waiting != 0 || st.Held != 0 || st.Leases != 0 {
					t.Fatalf("after Close: %+v", st)
				}
				return
			}
			c.send("trylock 1\r\n")
			c.expect("GRANTED 0x1")
			c.send("unlock 1\r\n")
			c.expect("RELEASED 0x1")
			if n := srv.Service().Locks(); n != 1 {
				t.Errorf("%d keys mapped, want the holder's one", n)
			}
			if st := srv.Stats(); st.Waiting != 0 || st.Held != 1 || st.Leases != 1 {
				t.Errorf("stats %+v, want waiting=0 held=1 leases=1", st)
			}
		})
	}
}

// wireForm is how a script's acquisitions are spelled on the wire: as the
// single-key ops, or as batches of one key.
type wireForm struct {
	name string
	try  func(key uint64) string
	wait func(id, key uint64) string
	// The replies: a prefix each, and the field of a grant line its token is.
	granted, busy        func(key uint64) string
	grant                string
	grantedTok, grantTok int
}

var wireForms = []wireForm{
	{
		name:       "single",
		try:        func(k uint64) string { return fmt.Sprintf("trylock %d", k) },
		wait:       func(id, k uint64) string { return fmt.Sprintf("wait %d %d", id, k) },
		granted:    func(k uint64) string { return "GRANTED " + fmtKey(k) },
		busy:       func(k uint64) string { return "BUSY " + fmtKey(k) },
		grant:      "GRANT",
		grantedTok: 2, // GRANTED key token ttl
		grantTok:   3, // GRANT id key token ttl
	},
	{
		name:       "batch of one",
		try:        func(k uint64) string { return fmt.Sprintf("trylockmany 0 %d", k) },
		wait:       func(id, k uint64) string { return fmt.Sprintf("lockmany %d 0 %d", id, k) },
		granted:    func(uint64) string { return "GRANTEDMANY" },
		busy:       func(uint64) string { return "BUSY many" },
		grant:      "GRANTMANY",
		grantedTok: 3, // GRANTEDMANY ttl key token
		grantTok:   4, // GRANTMANY id ttl key token
	},
}

// TestBatchOfOneIsTheSingleOp drives one script — a grant, a refusal of each
// kind, a cancel, a timeout, a queued grant — through the single-key ops and
// through one-key batches, each on a fresh server, and requires the same
// replies in the same order, the same tokens and the same Stats: the batched
// ops are the single-key path, not a second one beside it.
func TestBatchOfOneIsTheSingleOp(t *testing.T) {
	var stats []Stats
	var tokens [][]uint64
	for _, f := range wireForms {
		t.Run(f.name, func(t *testing.T) {
			srv, addr := newTestServer(t, Options{
				QueueDepth:         2,
				DefaultWaitTimeout: 500 * time.Millisecond,
				SweepInterval:      10 * time.Millisecond,
			})
			h, w, x := dialT(t, addr), dialT(t, addr), dialT(t, addr)
			var toks []uint64
			say := func(c *tconn, req string) { c.send(req + "\r\n") }

			say(h, f.try(7))
			toks = append(toks, tokenOf(t, h.expect(f.granted(7)), f.grantedTok))
			say(h, f.try(7))
			h.expect("ERR held")
			say(h, f.wait(1, 7))
			h.expect("ERR held")
			say(w, f.try(7))
			w.expect(f.busy(7))

			say(w, f.wait(5, 7))
			w.expect("QUEUED 5")
			say(w, f.wait(5, 9))
			w.expect("ERR dupid")
			say(x, f.wait(6, 7))
			x.expect("QUEUED 6")
			say(x, f.wait(7, 9)) // a free key, refused all the same: the bound is on waits
			x.expect("ERR overload")

			say(w, "cancel 5")
			w.expect("OK cancel 5")
			w.expect("CANCELLED 5")
			x.expect("TIMEOUT 6") // nobody cancels it: DefaultWaitTimeout does

			// A queued grant: QUEUED is on the wire before the terminal line.
			say(w, f.wait(8, 7))
			w.expect("QUEUED 8")
			say(h, "unlock 7")
			h.expect("RELEASED 0x7")
			line := w.expect(f.grant + " 8")
			if !strings.Contains(line, " "+fmtKey(7)+" ") {
				t.Errorf("grant line %q does not name the key", line)
			}
			toks = append(toks, tokenOf(t, line, f.grantTok))
			say(w, "unlock 7")
			w.expect("RELEASED 0x7")

			stats = append(stats, srv.Stats())
			tokens = append(tokens, toks)
		})
	}
	if len(stats) != 2 {
		return // a form failed and said why
	}
	if stats[0] != stats[1] {
		t.Errorf("stats differ:\n%s %+v\n%s %+v", wireForms[0].name, stats[0], wireForms[1].name, stats[1])
	}
	if !reflect.DeepEqual(tokens[0], tokens[1]) {
		t.Errorf("tokens differ: %v vs %v", tokens[0], tokens[1])
	}
	want := Stats{Sessions: 3, SessionsTotal: 3, Grants: 2, Releases: 2, Timeouts: 1, Cancels: 1, Overloads: 1}
	if stats[0] != want {
		t.Errorf("stats %+v, want %+v", stats[0], want)
	}
}
