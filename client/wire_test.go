package client_test

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"gls/client"
	"gls/server"
)

// The guards and the benchmark for the steady-state wire op: TryLock plus
// Unlock of a free key over loopback, client and server in this process, so
// the counts cover both ends.

// TestWireOpLeavesNoTimers: a finished op leaves nothing on the heap. Under
// this module's go 1.22 directive an unstopped time.After stays reachable
// until it fires, so a timer armed per reply (as the read loop once did)
// shows here as ≈10 MB after 20 000 round-trip pairs.
func TestWireOpLeavesNoTimers(t *testing.T) {
	c := dial(t, startServer(t, server.Options{}))
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	pair := func(key uint64) {
		if _, err := c.TryLock(key, 10*time.Second); err != nil {
			t.Fatalf("TryLock(%d): %v", key, err)
		}
		if err := c.Unlock(key); err != nil {
			t.Fatalf("Unlock(%d): %v", key, err)
		}
	}
	for i := 0; i < 1000; i++ { // buffers, maps and pools reach their size
		pair(uint64(1 + i%128))
	}
	before := heap()
	for i := 0; i < 20000; i++ {
		pair(uint64(1 + i%128))
	}
	if after := heap(); after > before+1<<20 {
		t.Fatalf("heap grew %d KB over 20000 TryLock+Unlock pairs, want < 1024 KB", (after-before)>>10)
	}
	if got := c.LastToken(1); got != 0 {
		t.Fatalf("LastToken of an unlocked key = %d, want 0", got)
	}
}

// TestWireOpAllocs bounds what one TryLock+Unlock allocates, in the client
// and the server together. What the op needs is three: the server's grant
// record, the key's table entry and its lock object; the bound leaves room
// for the runtime, not for a string per field.
func TestWireOpAllocs(t *testing.T) {
	c := dial(t, startServer(t, server.Options{}))
	key := uint64(0)
	allocs := testing.AllocsPerRun(2000, func() {
		key = key%128 + 1
		if _, err := c.TryLock(key, 10*time.Second); err != nil {
			t.Fatalf("TryLock: %v", err)
		}
		if err := c.Unlock(key); err != nil {
			t.Fatalf("Unlock: %v", err)
		}
	})
	if allocs > 10 {
		t.Fatalf("TryLock+Unlock allocates %.1f times per op, want <= 10", allocs)
	}
	t.Logf("%.1f allocs per TryLock+Unlock", allocs)
}

// TestTokenMapTracksHeldKeys: LastToken answers for the keys the session
// holds and forgets a key with its release, whichever way that comes.
func TestTokenMapTracksHeldKeys(t *testing.T) {
	addr := startServer(t, server.Options{SweepInterval: 10 * time.Millisecond})
	c := dial(t, addr)
	want := func(key, tok uint64, when string) {
		t.Helper()
		if got := c.LastToken(key); got != tok {
			t.Fatalf("LastToken(%d) = %d %s, want %d", key, got, when, tok)
		}
	}
	toks := map[uint64]uint64{}
	for _, k := range []uint64{1, 2, 3} {
		tok, err := c.TryLock(k, 0)
		if err != nil {
			t.Fatalf("TryLock(%d): %v", k, err)
		}
		toks[k] = tok
	}
	for _, k := range []uint64{1, 2, 3} {
		want(k, toks[k], "while held")
		if err := c.Unlock(k); err != nil {
			t.Fatalf("Unlock(%d): %v", k, err)
		}
		want(k, 0, "after Unlock")
	}

	expired := make(chan struct{}, 1)
	c.OnExpired(func(key, tok uint64) { expired <- struct{}{} })
	tok, err := c.TryLock(4, 30*time.Millisecond)
	if err != nil {
		t.Fatalf("TryLock: %v", err)
	}
	want(4, tok, "while held")
	select {
	case <-expired:
	case <-time.After(5 * time.Second):
		t.Fatal("lease never expired")
	}
	want(4, 0, "after EXPIRED")
}

// TestLongReplyLine: a reply longer than the read buffer (4 KB) is read
// whole, not taken for a broken stream. glsd's own lines are shorter than
// that, so a scripted peer answers a trylock with a long ERR: the client
// reads bytes from another process, whatever build it runs.
func TestLongReplyLine(t *testing.T) {
	detail := "key 0x7 " + strings.Repeat("x", 5000)
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
		for _, step := range []struct{ on, reply string }{
			{"session", "SESSION 1\r\n"},
			{"trylock", "ERR held " + detail + "\r\n"},
		} {
			if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, step.on) {
				return
			}
			_, _ = nc.Write([]byte(step.reply))
		}
		_, _ = br.ReadString('\n') // hold the socket open until the client hangs up
	}()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	_, err = c.TryLock(7, 0)
	var serr *client.ServerError
	if !errors.As(err, &serr) || serr.Code != "held" || serr.Detail != detail {
		t.Fatalf("TryLock answered by a %d-byte ERR detail: %v, want a *ServerError carrying all of it", len(detail), err)
	}
}

// TestLateForgetKeepsNewerGrant: a release drops the grant it released, not
// whatever the token map holds for the key by then. Two goroutines share a
// Conn, one waiting for the key the other holds, and the scripted server
// lets the waiter's GRANT overtake the holder's RELEASED, as the real one
// may.
func TestLateForgetKeepsNewerGrant(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	queued, regranted := make(chan struct{}), make(chan struct{})
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		for _, step := range []struct{ on, reply string }{
			{"session", "SESSION 1\r\n"},
			{"trylock", "GRANTED 0x7 1 10000\r\n"},
			{"wait", "QUEUED 1\r\n"},
			{"unlock", "GRANT 1 0x7 2 10000\r\n"},
		} {
			if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, step.on) {
				return
			}
			_, _ = nc.Write([]byte(step.reply))
			if step.on == "wait" {
				close(queued)
			}
		}
		<-regranted // Lock has returned, its token is recorded
		_, _ = nc.Write([]byte("RELEASED 0x7\r\n"))
		_, _ = br.ReadString('\n') // hold the socket open until the client hangs up
	}()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.TryLock(7, 0); err != nil {
		t.Fatalf("TryLock: %v", err)
	}
	go func() {
		defer close(regranted)
		if tok, err := c.Lock(context.Background(), 7, 0, 0); err != nil || tok != 2 {
			t.Errorf("Lock = %d, %v; want 2", tok, err)
		}
	}()
	select {
	case <-queued:
	case <-time.After(5 * time.Second):
		t.Fatal("wait never reached the server")
	}
	if err := c.Unlock(7); err != nil {
		t.Fatalf("Unlock: %v", err)
	}
	if got := c.LastToken(7); got != 2 {
		t.Fatalf("LastToken after the first grant's release = %d, want the second grant's 2", got)
	}
}

// TestUnsolicitedReplyFailsConn: one round trip at a time means one
// synchronous reply outstanding at most, so a second one with nobody
// waiting is a stream out of step, and the connection fails at once.
func TestUnsolicitedReplyFailsConn(t *testing.T) {
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
		buf := make([]byte, 64)
		if _, err := nc.Read(buf); err != nil { // "session"
			return
		}
		_, _ = nc.Write([]byte("SESSION 1\r\nPONG\r\nPONG\r\n"))
		_, _ = nc.Read(buf) // hold the socket open until the client hangs up
	}()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	start := time.Now()
	for {
		err := c.Ping() // the first may still pair with a stray PONG
		if err != nil {
			if !errors.Is(err, client.ErrClosed) || !strings.Contains(err.Error(), "unsolicited reply") {
				t.Fatalf("Ping on an out-of-step stream: %v, want ErrClosed (unsolicited reply)", err)
			}
			break
		}
		if time.Since(start) > 2*time.Second {
			t.Fatal("connection still up 2 s after an unsolicited reply")
		}
	}
}

// BenchmarkWireRoundTrip is the client's TryLock+Unlock over loopback, one
// request in flight: ns/op and allocs/op count both ends.
func BenchmarkWireRoundTrip(b *testing.B) {
	srv, err := server.New(server.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint64(1 + i%128)
		if _, err := c.TryLock(key, 10*time.Second); err != nil {
			b.Fatal(err)
		}
		if err := c.Unlock(key); err != nil {
			b.Fatal(err)
		}
	}
}
