package client_test

import (
	"context"
	"errors"
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
	if c.SessionID() == 0 {
		t.Fatal("no session id")
	}
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
	if got := c.LastToken(7); got != tok {
		t.Fatalf("LastToken = %d, want %d", got, tok)
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

func TestClientBatches(t *testing.T) {
	addr := startServer(t, server.Options{})
	a, b := dial(t, addr), dial(t, addr)

	tokens, err := a.TryLockMany(0, 1, 2, 3)
	if err != nil {
		t.Fatalf("TryLockMany: %v", err)
	}
	if len(tokens) != 3 {
		t.Fatalf("tokens: %v", tokens)
	}
	if _, err := b.TryLockMany(0, 3, 4); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("overlapping TryLockMany: %v, want ErrBusy", err)
	}

	done := make(chan error, 1)
	go func() {
		toks, err := b.LockMany(context.Background(), 0, 2, 3)
		if err == nil && len(toks) != 2 {
			err = errors.New("short token map")
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if n, err := a.UnlockMany(1, 2, 3); err != nil || n != 3 {
		t.Fatalf("UnlockMany: %d, %v", n, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("LockMany: %v", err)
	}
	if n, err := b.UnlockMany(2, 3, 9); err != nil || n != 2 {
		t.Fatalf("UnlockMany (b): %d, %v (key 9 never held)", n, err)
	}
}

// TestAbandonedLockManyHoldsNothing is the client's side of the server's
// TestAbandonedBatchHoldsNothing: a LockMany over {1, 2} parked behind a
// holder that keeps renewing key 2 comes back with ctx.Err() as soon as ctx
// is cancelled, and leaves key 1 free.
func TestAbandonedLockManyHoldsNothing(t *testing.T) {
	addr := startServer(t, server.Options{SweepInterval: 10 * time.Millisecond})
	a, b, c := dial(t, addr), dial(t, addr), dial(t, addr)
	if _, err := a.TryLock(2, 200*time.Millisecond); err != nil {
		t.Fatalf("TryLock: %v", err)
	}
	stop, renewing := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(renewing)
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if _, err := a.Renew(2, 200*time.Millisecond); err != nil {
				t.Errorf("Renew: %v", err)
				return
			}
		}
	}()
	defer func() { close(stop); <-renewing }()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.LockMany(ctx, 0, 1, 2)
		done <- err
	}()
	// Abandon the batch once it sits on key 1.
	for {
		_, err := c.TryLock(1, 0)
		if errors.Is(err, client.ErrBusy) {
			break
		}
		if err != nil {
			t.Fatalf("TryLock: %v", err)
		}
		if err := c.Unlock(1); err != nil {
			t.Fatalf("Unlock: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled LockMany: %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("LockMany still waiting 1s after its context was cancelled")
	}
	if _, err := c.TryLock(1, 0); err != nil {
		t.Fatalf("TryLock of the abandoned batch's key: %v", err)
	}
}

func TestPool(t *testing.T) {
	addr := startServer(t, server.Options{})
	p := client.NewPool(addr, 2)
	defer p.Close()

	c1, err := p.Get()
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	id1 := c1.SessionID()
	p.Put(c1)
	c2, err := p.Get()
	if err != nil {
		t.Fatalf("Get (2): %v", err)
	}
	if c2.SessionID() != id1 {
		t.Fatalf("pool did not reuse: %d then %d", id1, c2.SessionID())
	}
	p.Put(c2)

	if err := p.With(func(c *client.Conn) error {
		if _, err := c.TryLock(5, 0); err != nil {
			return err
		}
		return c.Unlock(5)
	}); err != nil {
		t.Fatalf("With: %v", err)
	}
}

// TestE2EFencing is the fencing-token protocol end to end: a holder whose
// lease expires while it is stalled must have its late write rejected by
// the token-checking store, and the next holder's write must land. This is
// the scenario fencing exists for (the paused-client problem), asserted
// over the real wire path.
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
	if v, tok := store.Read(key); v != 200 || tok != tokB {
		t.Fatalf("store = (%d, %d), want (200, %d)", v, tok, tokB)
	}
	if err := b.Unlock(key); err != nil {
		t.Fatalf("Unlock (b): %v", err)
	}
}
