package server

import (
	"bufio"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the wire path's write side: the response grammar byte for byte,
// and the bound on a peer that stops reading.

// TestResponseLinesPinned drives every response verb of DESIGN §14 and
// compares each line, terminator included, with the bytes clients have
// always been sent (the expectations were recorded from the formatter's
// string-joining predecessor).
func TestResponseLinesPinned(t *testing.T) {
	srv, addr := newTestServer(t, Options{SweepInterval: 10 * time.Millisecond})
	conns := map[string]*tconn{"a": dialT(t, addr)}
	// Token n of this script is the server's floor + n.
	tok := func(n uint64) string { return strconv.FormatUint(tokenFloor(srv)+n, 10) }
	steps := []struct {
		conn, send, want string
	}{
		{"a", "session\r\n", "SESSION 1\r\n"},
		{"a", "ping\n", "PONG\r\n"},
		{"a", "token 7\r\n", "TOKEN 0x7 " + tok(0) + "\r\n"},
		{"a", "trylock 7 250\r\n", "GRANTED 0x7 " + tok(1) + " 250\r\n"},
		{"a", "stats\r\n", "STATS sessions=1 held=1 waiting=0 leases=1 grants=1 releases=0 expiries=0 timeouts=0 cancels=0 disconnects=0 overloads=0\r\n"},
		{"a", "trylock 7\r\n", "ERR held key 0x7 already held by this session\r\n"},
		{"a", "renew 0x7 60000\r\n", "RENEWED 0x7 " + tok(1) + " 60000\r\n"},
		{"b", "trylock 7\r\n", "BUSY 0x7\r\n"},
		{"b", "wait 3 7 100 5000\r\n", "QUEUED 3\r\n"},
		{"a", "unlock 7\r\n", "RELEASED 0x7\r\n"},
		{"b", "", "GRANT 3 0x7 " + tok(2) + " 100\r\n"},
		{"b", "", "EXPIRED 0x7 " + tok(2) + "\r\n"}, // the 100 ms lease runs out
		{"b", "unlock 7\r\n", "ERR notheld key 0x7 is not held by this session\r\n"},
		{"b", "renew 7\r\n", "ERR notheld key 0x7 is not held by this session\r\n"},
		{"b", "trylock 4 60000\r\n", "GRANTED 0x4 " + tok(3) + " 60000\r\n"},
		{"a", "wait 5 4 0 30\r\n", "QUEUED 5\r\n"},
		{"a", "", "TIMEOUT 5\r\n"},
		{"a", "wait 6 4\r\n", "QUEUED 6\r\n"},
		{"a", "wait 6 9\r\n", "ERR dupid wait id 6 already outstanding\r\n"},
		{"a", "cancel 6\r\n", "OK cancel 6\r\n"},
		{"a", "", "CANCELLED 6\r\n"},
		{"a", "bogus\r\n", "ERR command unknown command \"bogus\"\r\n"},
		{"a", "trylock  7\r\n", "ERR command empty field (single spaces, no leading/trailing space)\r\n"},
		{"a", "trylock\r\n", "ERR args trylock takes 1-2 args, got 0\r\n"},
		{"a", "trylock 0\r\n", "ERR key zero key is not a valid lock\r\n"},
		{"a", "unlock x\r\n", "ERR key bad key \"x\"\r\n"},
		{"a", "wait y 7\r\n", "ERR number bad id \"y\"\r\n"},
		{"a", "trylock 7 18446744073709551615\r\n", "ERR number ttl 18446744073709551615 ms overflows\r\n"},
		{"b", "quit\r\n", "BYE\r\n"},
		{"a", "ping " + strings.Repeat("x", 5000) + "\r\n", "ERR toolong request line exceeds 4096 bytes\r\n"},
	}
	for _, st := range steps {
		c := conns[st.conn]
		if c == nil {
			c = dialT(t, addr)
			conns[st.conn] = c
		}
		if st.send != "" {
			c.send(st.send)
		}
		_ = c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := c.br.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: after %q: read: %v (partial %q)", st.conn, st.send, err, got)
		}
		if got != st.want {
			t.Fatalf("%s: after %q:\n got %q\nwant %q", st.conn, st.send, got, st.want)
		}
	}
}

// TestStalledReaderDelaysNobody: a peer that stops reading costs only
// itself, and only until the write deadline. The stalled session is the far
// end of a synchronous in-memory pipe that is never read, so the first
// flush towards it blocks, with the session's write lock held. It queues a
// wait on a held key; the key is released, and the wait's goroutine has a
// GRANT for it, which it can deliver only once that flush has given up.
// Meanwhile every other session's waits are granted at once; then the
// deadline closes the stalled session, its lease is swept, and Close
// returns. Without a deadline on the write neither of those ever happens.
func TestStalledReaderDelaysNobody(t *testing.T) {
	t.Parallel() // nearly all of its time is the server's write deadline running out
	srv, addr := newTestServer(t, Options{SweepInterval: 10 * time.Millisecond})
	holder, other := dialT(t, addr), dialT(t, addr)
	holder.send("trylock 1 60000\r\n")
	holder.expect("GRANTED 0x1")

	stalled, theirs := net.Pipe()
	defer stalled.Close()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		srv.handleConn(theirs)
	}()
	if _, err := stalled.Write([]byte("wait 1 1 60000 60000\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	holder.send("unlock 1\r\n")
	holder.expect("RELEASED 0x1")

	// Another session's waits do not notice.
	for key := uint64(10); key < 14; key++ {
		other.send("wait 1 " + fmtKey(key) + "\r\n")
		other.expect("QUEUED 1")
		_ = other.nc.SetReadDeadline(time.Now().Add(time.Second))
		line, err := other.br.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, "GRANT 1 "+fmtKey(key)+" ") {
			t.Fatalf("wait on a free key while a peer is stalled: %q, %v", line, err)
		}
		other.send("unlock " + fmtKey(key) + "\r\n")
		other.expect("RELEASED")
	}
	// The failed write closed the stalled session: its reader has run the
	// teardown and the sweeper takes back whatever it was granted.
	select {
	case <-handled:
	case <-time.After(3 * writeTimeout):
		t.Fatal("stalled session never torn down")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Held != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stalled session's grant not released: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(3 * writeTimeout):
		t.Fatal("Close did not return")
	}
}

// BenchmarkRawPipelined is one raw connection sending 8 request lines per
// write (4 trylock+unlock pairs, as TestPipelinedRequests does) and reading
// the 8 replies. One op is one batch; it also reports the server's write
// calls per request line (1: every reply is flushed as it is written — the
// baseline for coalescing them, which ROADMAP gates on a pipelined workload).
func BenchmarkRawPipelined(b *testing.B) {
	srv, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	var writes atomic.Int64
	go func() { _ = srv.Serve(countedListener{ln, &writes}) }()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	batch := []byte(strings.Repeat("trylock 7 10000\r\nunlock 7\r\n", 4))
	const lines = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nc.Write(batch); err != nil {
			b.Fatal(err)
		}
		for l := 0; l < lines; l++ {
			line, err := br.ReadSlice('\n')
			if err != nil || (line[0] != 'G' && line[0] != 'R') {
				b.Fatalf("reply %q, %v", line, err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(writes.Load())/float64(b.N*lines), "writes/line")
}

// countedConn counts the writes a connection handler makes.
type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countedListener hands out connections that count their writes.
type countedListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{c, l.writes}, nil
}

// TestLongResponseOneWrite: a response longer than the session's write
// buffer still reaches the peer whole, in one write, and leaves the buffer
// as the next line expects it. The long line is the ERR echo of a 3 KB verb.
func TestLongResponseOneWrite(t *testing.T) {
	srv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	go func() { _ = srv.Serve(countedListener{ln, &writes}) }()
	c := dialT(t, ln.Addr().String())
	c.send("session\r\n")
	c.expect("SESSION")

	verb := strings.Repeat("x", 3000)
	for _, st := range []struct{ send, want string }{
		{verb + "\r\n", "ERR command unknown command \"" + verb + "\"\r\n"},
		{"token 7\r\n", "TOKEN 0x7 " + strconv.FormatUint(tokenFloor(srv), 10) + "\r\n"}, // TestResponseLinesPinned's row
	} {
		before := writes.Load()
		c.send(st.send)
		_ = c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := c.br.ReadString('\n')
		if err != nil || got != st.want {
			t.Fatalf("after a %d-byte request: %d-byte reply %.40q..., %v; want the %d-byte %.40q...", len(st.send), len(got), got, err, len(st.want), st.want)
		}
		if n := writes.Load() - before; n != 1 {
			t.Fatalf("a %d-byte reply took %d writes, want 1", len(got), n)
		}
	}
}

// splitConn is a connection whose two directions are separate in-memory
// pipes, so a test can close the peer's reading end — the session's writes
// then fail — while the session's reader still waits for requests. It
// counts the writes that reach it and remembers which one failed first.
type splitConn struct {
	net.Conn          // the session's end of the request pipe
	out      net.Conn // the session's end of the response pipe
	writes   *atomic.Int64
	failedAt *atomic.Int64 // the number of the first failed write, 0 before
}

func (c splitConn) Write(p []byte) (int, error) {
	n := c.writes.Add(1)
	w, err := c.out.Write(p)
	if err != nil {
		c.failedAt.CompareAndSwap(0, n)
	}
	return w, err
}

func (c splitConn) SetWriteDeadline(t time.Time) error { return c.out.SetWriteDeadline(t) }

func (c splitConn) Close() error {
	_ = c.out.Close()
	return c.Conn.Close()
}

// TestDeadPeerLastWrite: once the peer has closed, the session's first
// failed write is the last write it makes — the lines behind it, already
// read and dispatched, are dropped by the writer's sticky error — and the
// teardown runs: the session leaves the registry and its lease is swept.
func TestDeadPeerLastWrite(t *testing.T) {
	srv, _ := newTestServer(t, Options{SweepInterval: 10 * time.Millisecond})
	reqs, theirReqs := net.Pipe()
	resps, theirResps := net.Pipe()
	defer reqs.Close()
	var writes, failedAt atomic.Int64
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		srv.handleConn(splitConn{theirReqs, theirResps, &writes, &failedAt})
	}()
	br := bufio.NewReader(resps)
	for _, st := range []struct{ send, want string }{
		{"session\r\n", "SESSION "},
		{"trylock 9 60000\r\n", "GRANTED 0x9 "},
	} {
		if _, err := reqs.Write([]byte(st.send)); err != nil {
			t.Fatalf("send %q: %v", st.send, err)
		}
		if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, st.want) {
			t.Fatalf("after %q: %q, %v; want %q...", st.send, line, err, st.want)
		}
	}
	_ = resps.Close() // the peer is gone; its requests are still on their way
	if _, err := reqs.Write([]byte("ping\r\nping\r\ntoken 9\r\n")); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case <-handled:
	case <-time.After(5 * time.Second):
		t.Fatal("session never torn down after its write failed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for st := srv.Stats(); st.Sessions != 0 || st.Held != 0; st = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("dead session left behind: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, last := failedAt.Load(), writes.Load(); got != 3 || last != got {
		t.Fatalf("first failed write is #%d of %d, want #3 of 3 (SESSION, GRANTED, then the failed PONG and nothing after it)", got, last)
	}
}

// TestIdleSessionFootprint bounds what one idle session costs glsd on the
// heap: the session and its maps, the request scanner's first buffer, the
// write buffer, and its reader goroutine's record. The peers are raw TCP
// (their socket objects, ≈ 0.4 KB each, count too) that open a session and
// take and release one key. Goroutine stacks are not heap, and not counted.
func TestIdleSessionFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what goroutines and channels cost")
	}
	srv, addr := newTestServer(t, Options{})
	const peers = 256
	before := liveHeap()
	conns := make([]net.Conn, 0, peers)
	defer func() {
		for _, nc := range conns {
			_ = nc.Close()
		}
	}()
	br := bufio.NewReaderSize(nil, 64) // one small reader, moved from peer to peer
	for i := 0; i < peers; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conns = append(conns, nc)
		br.Reset(nc)
		for _, st := range []struct{ send, want string }{
			{"session\r\n", "SESSION "},
			{"trylock 1\r\n", "GRANTED 0x1 "},
			{"unlock 1\r\n", "RELEASED 0x1"},
		} {
			if _, err := nc.Write([]byte(st.send)); err != nil {
				t.Fatalf("peer %d: send %q: %v", i, st.send, err)
			}
			if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, st.want) {
				t.Fatalf("peer %d: after %q: %q, %v", i, st.send, line, err)
			}
		}
	}
	if n := srv.Stats().Sessions; n != peers {
		t.Fatalf("%d sessions, want %d", n, peers)
	}
	per := (int64(liveHeap()) - int64(before)) / peers
	t.Logf("%d B of heap per idle session", per)
	if per > 3584 {
		t.Fatalf("an idle session costs %d B of heap, want <= 3.5 KB", per)
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
