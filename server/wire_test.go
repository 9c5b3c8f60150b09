package server

import (
	"bufio"
	"net"
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
	_, addr := newTestServer(t, Options{SweepInterval: 10 * time.Millisecond})
	conns := map[string]*tconn{"a": dialT(t, addr)}
	steps := []struct {
		conn, send, want string
	}{
		{"a", "session\r\n", "SESSION 1\r\n"},
		{"a", "ping\n", "PONG\r\n"},
		{"a", "token 7\r\n", "TOKEN 0x7 0\r\n"},
		{"a", "trylock 7 250\r\n", "GRANTED 0x7 1 250\r\n"},
		{"a", "stats\r\n", "STATS sessions=1 held=1 waiting=0 leases=1 grants=1 releases=0 expiries=0 timeouts=0 cancels=0 disconnects=0 overloads=0\r\n"},
		{"a", "trylock 7\r\n", "ERR held key 0x7 already held by this session\r\n"},
		{"a", "renew 0x7 60000\r\n", "RENEWED 0x7 1 60000\r\n"},
		{"b", "trylock 7\r\n", "BUSY 0x7\r\n"},
		{"b", "wait 3 7 100 5000\r\n", "QUEUED 3\r\n"},
		{"a", "unlock 7\r\n", "RELEASED 0x7\r\n"},
		{"b", "", "GRANT 3 0x7 2 100\r\n"},
		{"b", "", "EXPIRED 0x7 2\r\n"}, // the 100 ms lease runs out
		{"b", "unlock 7\r\n", "ERR notheld key 0x7 is not held by this session\r\n"},
		{"b", "renew 7\r\n", "ERR notheld key 0x7 is not held by this session\r\n"},
		{"a", "trylockmany 60000 1 0xab\r\n", "GRANTEDMANY 60000 0x1 3 0xab 3\r\n"},
		{"b", "trylockmany 0 0xab 9\r\n", "BUSY many\r\n"},
		{"b", "lockmany 8 60000 0xab 4\r\n", "QUEUED 8\r\n"},
		{"a", "unlockmany 1 0xab 3\r\n", "RELEASEDMANY 2\r\n"},
		{"b", "", "GRANTMANY 8 60000 0xab 4 0x4 4\r\n"},
		{"a", "wait 5 4 0 30\r\n", "QUEUED 5\r\n"},
		{"a", "", "TIMEOUT 5\r\n"},
		{"a", "wait 6 4\r\n", "QUEUED 6\r\n"},
		{"a", "wait 6 9\r\n", "ERR dupid wait id 6 already outstanding\r\n"},
		{"a", "cancel 6\r\n", "OK cancel 6\r\n"},
		{"a", "", "CANCELLED 6\r\n"},
		{"a", "bogus\r\n", "ERR command unknown command \"bogus\"\r\n"},
		{"a", "trylock  7\r\n", "ERR command empty field (single spaces, no leading/trailing space)\r\n"},
		{"a", "trylock\r\n", "ERR args trylock takes 1-2 args, got 0\r\n"},
		{"a", "lockmany 1 0\r\n", "ERR args lockmany takes 3-66 args, got 2\r\n"},
		{"a", "trylock 0\r\n", "ERR key zero key is not a valid lock\r\n"},
		{"a", "unlock x\r\n", "ERR key bad key \"x\"\r\n"},
		{"a", "wait y 7\r\n", "ERR number bad id \"y\"\r\n"},
		{"a", "trylock 7 18446744073709551615\r\n", "ERR number ttl 18446744073709551615 ms overflows\r\n"},
		{"a", "unlockmany" + strings.Repeat(" 7", 65) + "\r\n", "ERR toomany unlockmany batch of 65 exceeds limit 64\r\n"},
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
