package client

import (
	"bufio"
	"context"
	"errors"
	"net"
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
