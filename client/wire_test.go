package client_test

import (
	"bufio"
	"context"
	"errors"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	before := liveHeap()
	for i := 0; i < 20000; i++ {
		pair(uint64(1 + i%128))
	}
	if after := liveHeap(); after > before+1<<20 {
		t.Fatalf("heap grew %d KB over 20000 TryLock+Unlock pairs, want < 1024 KB", (after-before)>>10)
	}
}

// liveHeap is the heap in use after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
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

// TestLongReplyLine: a reply longer than the read buffer is read whole, not
// taken for a broken stream. glsd's own lines are shorter than that, so a
// scripted peer answers a trylock with a long ERR: the client reads bytes
// from another process, whatever build it runs.
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

// TestReplyReadBoundary: replies of one byte under, exactly at and one byte
// over the read buffer's 512 B, terminator included, are each read whole,
// and the line after each is read as it was sent. A scripted peer answers
// trylocks with ERR lines padded to those lengths.
func TestReplyReadBoundary(t *testing.T) {
	const pre = "ERR held " // then the detail, then "\r\n"
	lengths := []int{511, 512, 513}
	details := map[string]string{} // request line → the detail of its reply
	for i, n := range lengths {
		details["trylock 0x"+strconv.Itoa(i+1)] = "key " + strings.Repeat("x", n-len(pre)-len("key ")-len("\r\n"))
	}
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
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			req := strings.TrimRight(line, "\r\n")
			switch {
			case req == "session":
				_, _ = nc.Write([]byte("SESSION 1\r\n"))
			case req == "ping":
				_, _ = nc.Write([]byte("PONG\r\n"))
			case details[req] != "":
				_, _ = nc.Write([]byte(pre + details[req] + "\r\n"))
			default:
				return
			}
		}
	}()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	for i, n := range lengths {
		want := details["trylock 0x"+strconv.Itoa(i+1)]
		_, err := c.TryLock(uint64(i+1), 0)
		var serr *client.ServerError
		if !errors.As(err, &serr) || serr.Code != "held" || serr.Detail != want {
			t.Fatalf("TryLock answered by a %d-byte line: %v, want a *ServerError carrying its %d-byte detail", n, err, len(want))
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("Ping after a %d-byte line: %v", n, err)
		}
	}
}

// TestIdleConnFootprint bounds what one idle connection costs on the heap,
// both ends counted, as the pair a client.Dial makes with an in-process
// glsd: the Conn with its map, channels and buffers, the session, and each
// side's socket objects and reader goroutine record. Every Conn takes and
// releases one key, then sits. Goroutine stacks are not heap, and not
// counted.
func TestIdleConnFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what goroutines and channels cost")
	}
	addr := startServer(t, server.Options{})
	const conns = 256
	before := liveHeap()
	cs := make([]*client.Conn, 0, conns)
	defer func() {
		for _, c := range cs {
			_ = c.Close()
		}
	}()
	for i := 0; i < conns; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		cs = append(cs, c)
		if _, err := c.TryLock(1, 0); err != nil {
			t.Fatalf("TryLock: %v", err)
		}
		if err := c.Unlock(1); err != nil {
			t.Fatalf("Unlock: %v", err)
		}
	}
	per := (int64(liveHeap()) - int64(before)) / conns
	t.Logf("%d B of heap per idle connection pair", per)
	if per > 6<<10 {
		t.Fatalf("an idle connection pair costs %d B of heap, want <= 6 KB", per)
	}
}

// TestGrantOvertakesRelease: a GRANT that arrives before the RELEASED of
// the unlock that caused it still reaches the waiting Lock, with its own
// token, and the unlock still gets its reply. Two goroutines share a Conn,
// one waiting for the key the other holds, and the scripted server lets the
// waiter's GRANT overtake the holder's RELEASED, as the real one may.
func TestGrantOvertakesRelease(t *testing.T) {
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
		<-regranted // Lock has returned with the GRANT's token
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

// TestSharedConnEveryCallerProgresses: eight goroutines sharing one Conn
// all get round trips, not just the one that keeps re-taking the request
// lock as its last round trip ends. Each runs TryLock+Unlock on keys of its
// own for 300 ms and must finish at least 10 ops, every one correct: a
// token larger than the last one it saw for that key, and a RELEASED
// unlock. A request lock that barges with no starvation hand-off fails
// this: the goroutines it passes over wait out the whole run.
func TestSharedConnEveryCallerProgresses(t *testing.T) {
	c := dial(t, startServer(t, server.Options{}))
	const goroutines, keys, floor = 8, 16, 10
	var ops [goroutines]int
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			last := make(map[uint64]uint64)
			for i := 0; !stop.Load(); i++ {
				key := uint64(g*keys + 1 + i%keys)
				tok, err := c.TryLock(key, 10*time.Second)
				if err != nil {
					t.Errorf("goroutine %d: TryLock(%d): %v", g, key, err)
					return
				}
				if tok <= last[key] {
					t.Errorf("goroutine %d: TryLock(%d) token %d, not above the last grant's %d", g, key, tok, last[key])
					return
				}
				last[key] = tok
				if err := c.Unlock(key); err != nil {
					t.Errorf("goroutine %d: Unlock(%d): %v", g, key, err)
					return
				}
				ops[g]++
			}
		}(g)
	}
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	for g, n := range ops {
		if n < floor {
			t.Errorf("goroutine %d finished %d ops in 300 ms, want >= %d (all: %v)", g, n, floor, ops)
		}
	}
	t.Logf("ops per goroutine: %v", ops)
}

// BenchmarkWireRoundTrip is the client's TryLock+Unlock over loopback, one
// request in flight: ns/op and allocs/op count both ends.
func BenchmarkWireRoundTrip(b *testing.B) {
	c := benchConn(b)
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

// BenchmarkWireSoloLock is wire_handoff's op run by one goroutine alone:
// Lock (a wait that is granted at once: glsd writes QUEUED and GRANT
// together), Token, Unlock. Nothing contends, so it times what a wait
// costs the client beside two plain round trips: the wait's round trip
// routes its own GRANT, and the round trips after it read their own
// replies, as a TryLock's would. fresh runs on a Conn just dialled; idle on
// one that first sat idle for 5 ms, long past the two 1 ms ticks after
// which its reader goroutine takes the read baton, as glsmark's sessions
// sit while the rest are dialled. An op's cost depends on what is
// outstanding on the Conn, not on its past, so the two read the same.
func BenchmarkWireSoloLock(b *testing.B) {
	for _, bc := range []struct {
		name string
		idle time.Duration
	}{{"fresh", 0}, {"idle", 5 * time.Millisecond}} {
		b.Run(bc.name, func(b *testing.B) {
			c := benchConn(b)
			time.Sleep(bc.idle)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := uint64(1 + i%128)
				tok, err := c.Lock(ctx, key, 10*time.Second, 5*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				if cur, err := c.Token(key); err != nil || cur != tok {
					b.Fatalf("Token = %d, %v; want %d", cur, err, tok)
				}
				if err := c.Unlock(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchConn dials an in-process glsd on loopback, both torn down when b
// ends.
func benchConn(b *testing.B) *client.Conn {
	srv, err := server.New(server.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	return c
}
