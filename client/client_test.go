package client_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gls/client"
	"gls/server"
)

// startServer runs a glsd instance on loopback for the tests.
func startServer(t *testing.T, opts server.Options) string {
	t.Helper()
	srv, err := server.New(opts)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Close)
	return ln.Addr().String()
}

func dial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestClientBasics(t *testing.T) {
	addr := startServer(t, server.Options{})
	c := dial(t, addr)
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	tok, err := c.TryLock(7, 0)
	if err != nil {
		t.Fatalf("TryLock: %v", err)
	}
	if tok == 0 {
		t.Fatal("zero token")
	}
	if cur, err := c.Token(7); err != nil || cur != tok {
		t.Fatalf("Token = %d, %v; want %d", cur, err, tok)
	}

	// A second session loses the trylock race and can watch the token.
	c2 := dial(t, addr)
	if _, err := c2.TryLock(7, 0); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("second TryLock: %v, want ErrBusy", err)
	}

	if _, err := c.Renew(7, time.Second); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	if err := c.Unlock(7); err != nil {
		t.Fatalf("Unlock: %v", err)
	}
	if err := c.Unlock(7); !errors.Is(err, client.ErrNotHeld) {
		t.Fatalf("double Unlock: %v, want ErrNotHeld", err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st["grants"] != 1 || st["releases"] != 1 {
		t.Fatalf("stats: %v", st)
	}
}

func TestClientLockWaits(t *testing.T) {
	addr := startServer(t, server.Options{})
	a, b := dial(t, addr), dial(t, addr)

	tokA, err := a.TryLock(7, 0)
	if err != nil {
		t.Fatalf("TryLock: %v", err)
	}
	var granted atomic.Bool
	done := make(chan error, 1)
	go func() {
		tokB, err := b.Lock(context.Background(), 7, 0, 0)
		granted.Store(true)
		if err == nil && tokB <= tokA {
			err = errors.New("token did not advance")
		}
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	if granted.Load() {
		t.Fatal("Lock returned while the key was held")
	}
	if err := a.Unlock(7); err != nil {
		t.Fatalf("Unlock: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Lock: %v", err)
	}
	if err := b.Unlock(7); err != nil {
		t.Fatalf("Unlock (b): %v", err)
	}
}

func TestClientLockTimeoutAndCancel(t *testing.T) {
	addr := startServer(t, server.Options{})
	a, b := dial(t, addr), dial(t, addr)
	if _, err := a.TryLock(7, 0); err != nil {
		t.Fatalf("TryLock: %v", err)
	}

	if _, err := b.Lock(context.Background(), 7, 0, 50*time.Millisecond); !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("Lock: %v, want ErrTimeout", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Lock(ctx, 7, 0, 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Lock: %v, want context.Canceled", err)
	}
}

// TestCloseMidRoundTrip: Close on a Conn that holds one key and has a Lock
// queued for another sends nothing and waits for nothing. It returns within
// a second, and a second Close returns nil; the queued Lock returns an error
// wrapping ErrClosed; and glsd, seeing EOF, tears the session down: the
// session count drops by one and another Conn can take the held key.
func TestCloseMidRoundTrip(t *testing.T) {
	srv, err := server.New(server.Options{SweepInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	t.Cleanup(srv.Close)
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()
	addr := ln.Addr().String()
	holder, other, c := dial(t, addr), dial(t, addr), dial(t, addr)
	if _, err := holder.TryLock(1, 0); err != nil {
		t.Fatalf("TryLock(1): %v", err)
	}
	if _, err := c.TryLock(2, 0); err != nil {
		t.Fatalf("TryLock(2): %v", err)
	}
	sessions := srv.Stats().Sessions
	locked := make(chan error, 1)
	go func() {
		_, err := c.Lock(context.Background(), 1, 0, 0)
		locked <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatal("Lock(1) never queued on the server")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close still blocked after 1 s")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
	select {
	case err := <-locked:
		if !errors.Is(err, client.ErrClosed) {
			t.Fatalf("Lock queued across Close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Lock queued across Close still blocked after 5 s")
	}

	for srv.Stats().Sessions != sessions-1 {
		if time.Now().After(deadline) {
			t.Fatalf("glsd has %d sessions after Close, want %d", srv.Stats().Sessions, sessions-1)
		}
		time.Sleep(time.Millisecond)
	}
	for {
		_, err := other.TryLock(2, 0)
		if err == nil {
			break
		}
		if !errors.Is(err, client.ErrBusy) || time.Now().After(deadline) {
			t.Fatalf("TryLock(2) after its holder's Close: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestE2EFencing(t *testing.T) {
	addr := startServer(t, server.Options{SweepInterval: 10 * time.Millisecond})
	store := client.NewFencedStore()
	const key = 7

	a, b := dial(t, addr), dial(t, addr)
	expired := make(chan uint64, 1)
	a.OnExpired(func(k, tok uint64) {
		if k == key {
			expired <- tok
		}
	})

	// A acquires with a short lease and writes once while healthy.
	tokA, err := a.TryLock(key, 40*time.Millisecond)
	if err != nil {
		t.Fatalf("TryLock: %v", err)
	}
	if err := store.Write(key, tokA, 100); err != nil {
		t.Fatalf("healthy write: %v", err)
	}

	// A stalls (GC pause, network partition...) past its lease: the
	// sweeper reaps the lock and says so.
	select {
	case tok := <-expired:
		if tok != tokA {
			t.Fatalf("EXPIRED token %d, want %d", tok, tokA)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lease never expired")
	}

	// B acquires — the wait path, straight through the freed key — and
	// writes with its larger token.
	tokB, err := b.Lock(context.Background(), key, 0, 0)
	if err != nil {
		t.Fatalf("Lock (b): %v", err)
	}
	if tokB <= tokA {
		t.Fatalf("token did not advance across expiry: %d then %d", tokA, tokB)
	}
	if err := store.Write(key, tokB, 200); err != nil {
		t.Fatalf("new holder write: %v", err)
	}

	// A wakes up and tries to finish its old write: fenced off.
	if err := store.Write(key, tokA, 999); !errors.Is(err, client.ErrStaleToken) {
		t.Fatalf("stale write: %v, want ErrStaleToken", err)
	}
	// The stale write left B's token in force: B writes on, A stays out.
	if err := store.Write(key, tokB, 201); err != nil {
		t.Fatalf("holder write after the stale one: %v", err)
	}
	if err := store.Write(key, tokA, 999); !errors.Is(err, client.ErrStaleToken) {
		t.Fatalf("second stale write: %v, want ErrStaleToken", err)
	}
	if err := b.Unlock(key); err != nil {
		t.Fatalf("Unlock (b): %v", err)
	}
}

// TestFencingSurvivesRestart restarts glsd while a client holds a key, under
// one FencedStore. The restarted server knows nothing of the old grant and
// hands the key straight to the next client; that client's token must still
// exceed the one the old server minted, so the old holder's late write is
// fenced off although the two tokens came from different processes.
func TestFencingSurvivesRestart(t *testing.T) {
	store := client.NewFencedStore()
	const key = 7

	first, err := server.New(server.Options{})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln, err := first.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go func() { _ = first.Serve(ln) }()
	addr := ln.Addr().String()
	a := dial(t, addr)
	tokA, err := a.TryLock(key, 0)
	if err != nil {
		t.Fatalf("TryLock (a): %v", err)
	}
	if err := store.Write(key, tokA, 100); err != nil {
		t.Fatalf("first holder's write: %v", err)
	}

	first.Close() // glsd goes down mid-hold and comes back on the same address
	second, err := server.New(server.Options{})
	if err != nil {
		t.Fatalf("server.New after the restart: %v", err)
	}
	t.Cleanup(second.Close)
	ln, err = second.Listen(addr)
	if err != nil {
		t.Fatalf("Listen on %s after the restart: %v", addr, err)
	}
	go func() { _ = second.Serve(ln) }()

	b := dial(t, addr)
	tokB, err := b.TryLock(key, 0)
	if err != nil {
		t.Fatalf("TryLock (b) after the restart: %v", err)
	}
	if err := store.Write(key, tokB, 200); err != nil {
		t.Fatalf("new holder's write: %v", err)
	}
	if err := store.Write(key, tokA, 999); !errors.Is(err, client.ErrStaleToken) {
		t.Fatalf("old holder's write with token %d after the restarted server granted %d: %v, want ErrStaleToken", tokA, tokB, err)
	}
	if err := b.Unlock(key); err != nil {
		t.Fatalf("Unlock (b): %v", err)
	}
}

// TestRoundTripRacesLock: round trips and a waiting Lock share one Conn,
// and every line reaches its owner. On Conn a, one goroutine runs
// TryLock+Unlock on keys of its own (round trips that read their own
// replies, and route what they read past them) while another runs
// Lock+Unlock on a key that a goroutine on Conn b keeps taking, so a's
// GRANTs arrive while a's round trips, or a's reader goroutine, hold the
// read baton. Every call must succeed, every token must exceed the last one
// seen for its key, and under -race no access may race.
func TestRoundTripRacesLock(t *testing.T) {
	addr := startServer(t, server.Options{})
	a, b := dial(t, addr), dial(t, addr)
	const shared = 7
	var stop atomic.Bool
	var wg sync.WaitGroup
	var trips, locks atomic.Int64
	run := func(name string, body func(last map[uint64]uint64) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make(map[uint64]uint64)
			for !stop.Load() {
				if err := body(last); err != nil {
					t.Errorf("%s: %v", name, err)
					stop.Store(true)
					return
				}
			}
		}()
	}
	advance := func(last map[uint64]uint64, key, tok uint64) error {
		if tok <= last[key] {
			return fmt.Errorf("key %d: token %d, not above the last seen %d", key, tok, last[key])
		}
		last[key] = tok
		return nil
	}
	i := uint64(0)
	run("round trips on a", func(last map[uint64]uint64) error {
		i++
		key := 100 + i%16
		tok, err := a.TryLock(key, 10*time.Second)
		if err != nil {
			return err
		}
		if err := advance(last, key, tok); err != nil {
			return err
		}
		trips.Add(1)
		return a.Unlock(key)
	})
	locker := func(c *client.Conn, n *atomic.Int64) func(map[uint64]uint64) error {
		return func(last map[uint64]uint64) error {
			tok, err := c.Lock(context.Background(), shared, 10*time.Second, 5*time.Second)
			if err != nil {
				return err
			}
			if err := advance(last, shared, tok); err != nil {
				return err
			}
			if n != nil {
				n.Add(1)
			}
			return c.Unlock(shared)
		}
	}
	run("Lock on a", locker(a, &locks))
	run("Lock on b", locker(b, nil))
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if trips.Load() == 0 || locks.Load() == 0 {
		t.Fatalf("%d round trips and %d Locks on the shared Conn, want both > 0", trips.Load(), locks.Load())
	}
	t.Logf("%d round trips and %d Locks on the shared Conn", trips.Load(), locks.Load())
}
