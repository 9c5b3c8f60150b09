package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"gls/client"
	"gls/server"
)

// runSessionDrop is the glsd session-death chaos: a live lock server,
// workers acquiring keys over real TCP connections, and connections killed
// mid-hold — no unlock, no quit, just a closed socket. Success criteria:
//
//   - leases expire: every dropped hold is reaped (the teardown clamps the
//     lease and the sweeper releases it), and the silent-holder phase shows
//     the pure-TTL path too — a connection that stays open but stops
//     renewing gets its EXPIRED notice;
//   - locks stay acquirable: after every drop the next worker's acquisition
//     succeeds within its wait bound, for every key, to the end;
//   - fencing tokens strictly increase per key across the drops — grant
//     order is token order, drops and expiries included — and every
//     in-lease store write is accepted while stale writes are refused.
func runSessionDrop() (string, bool) {
	const what = "lease reaping, reacquirability and token monotonicity across session drops"
	rounds := 40
	if quickMode {
		rounds = 12
	}
	const nkeys = 4

	srv, err := server.New(server.Options{
		DefaultTTL:    2 * time.Second,
		SweepInterval: 10 * time.Millisecond,
	})
	if err != nil {
		fmt.Printf("server: %v\n", err)
		return what, false
	}
	defer srv.Close()
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Printf("listen: %v\n", err)
		return what, false
	}
	go func() { _ = srv.Serve(ln) }()
	addr := ln.Addr().String()

	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	fmt.Printf("glsd on %s; %d workers × %d rounds over %d keys, dropping ~1/3 of holds mid-lease...\n",
		addr, workers, rounds, nkeys)

	store := client.NewFencedStore()
	var mu sync.Mutex
	tokens := make([][]uint64, nkeys) // per-key token log, in grant order
	ok := true
	fail := func(format string, args ...any) {
		mu.Lock()
		ok = false
		fmt.Printf("  FAIL: "+format+"\n", args...)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	var dropped, held int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := uint64(1 + (w+i)%nkeys)
				c, err := client.Dial(addr)
				if err != nil {
					fail("dial: %v", err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				tok, err := c.Lock(ctx, key, 0, 0)
				cancel()
				if err != nil {
					fail("lock key %d: %v (a dropped hold was not reaped in time)", key, err)
					_ = c.Close()
					return
				}
				// In-lease write: must be accepted, and the token log —
				// appended while holding, so in grant order — must come out
				// strictly increasing per key.
				if err := store.Write(key, tok, uint64(w*rounds+i)); err != nil {
					fail("in-lease write key %d token %d: %v", key, tok, err)
				}
				mu.Lock()
				tokens[key-1] = append(tokens[key-1], tok)
				mu.Unlock()
				if (w+i)%3 == 0 {
					// The chaos: kill the connection mid-hold. The server
					// must reap the lease; nobody unlocks.
					raw, _ := net.Dial("tcp", addr) // keep Dial counted fairly below
					if raw != nil {
						_ = raw.Close()
					}
					_ = c.Close()
					mu.Lock()
					dropped++
					mu.Unlock()
					continue
				}
				if err := c.Unlock(key); err != nil {
					fail("unlock key %d: %v", key, err)
				}
				_ = c.Close()
				mu.Lock()
				held++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	// Silent-holder phase: the pure TTL path, no disconnect involved. The
	// connection stays open, never renews, and must be told it expired.
	c, err := client.Dial(addr)
	if err != nil {
		fail("dial (silent): %v", err)
	} else {
		expired := make(chan uint64, 1)
		c.OnExpired(func(k, tok uint64) {
			if k == 1 {
				expired <- tok
			}
		})
		// Lock, not TryLock: the last dropped session's lease on key 1 may
		// still be a sweeper pass away from released when the workers finish.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		tok, err := c.Lock(ctx, 1, 50*time.Millisecond, 0)
		cancel()
		if err != nil {
			fail("silent Lock: %v", err)
		} else {
			mu.Lock()
			tokens[0] = append(tokens[0], tok)
			mu.Unlock()
			select {
			case etok := <-expired:
				if etok != tok {
					fail("EXPIRED token %d, want %d", etok, tok)
				}
			case <-time.After(10 * time.Second):
				fail("silent holder never notified of expiry")
			}
			// The stale holder's write must be fenced once the key moves on.
			c2, err := client.Dial(addr)
			if err != nil {
				fail("dial (next holder): %v", err)
			} else {
				ntok, err := c2.TryLock(1, 0)
				if err != nil {
					fail("post-expiry TryLock: %v", err)
				} else {
					if ntok <= tok {
						fail("post-expiry token %d not above %d", ntok, tok)
					}
					if err := store.Write(1, ntok, 0xbeef); err != nil {
						fail("next holder write: %v", err)
					}
					if err := store.Write(1, tok, 0xdead); !errors.Is(err, client.ErrStaleToken) {
						fail("stale write after expiry: %v, want ErrStaleToken", err)
					}
					mu.Lock()
					tokens[0] = append(tokens[0], ntok)
					mu.Unlock()
					_ = c2.Unlock(1)
				}
				_ = c2.Close()
			}
		}
		_ = c.Close()
	}

	// Every key must still be acquirable after all the chaos.
	final, err := client.Dial(addr)
	if err != nil {
		fail("dial (final): %v", err)
	} else {
		for k := uint64(1); k <= nkeys; k++ {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			tok, err := final.Lock(ctx, k, 0, 0)
			cancel()
			if err != nil {
				fail("final lock key %d: %v", k, err)
				continue
			}
			mu.Lock()
			tokens[k-1] = append(tokens[k-1], tok)
			mu.Unlock()
			_ = final.Unlock(k)
		}
		_ = final.Close()
	}

	// Token monotonicity per key, across every grant, drop and expiry.
	grants := 0
	for k, log := range tokens {
		grants += len(log)
		for i := 1; i < len(log); i++ {
			if log[i] <= log[i-1] {
				fail("key %d token order violated: %d after %d (position %d/%d)",
					k+1, log[i], log[i-1], i, len(log))
			}
		}
	}

	st := srv.Stats()
	fmt.Printf("grants %d (server: %d), dropped %d, clean %d; server expiries %d, disconnects %d, held now %d\n",
		grants, st.Grants, dropped, held, st.Expiries, st.Disconnects, st.Held)
	if st.Disconnects == 0 || dropped == 0 {
		fail("chaos never exercised the drop path")
	}
	if st.Expiries < uint64(dropped) {
		// Every drop is reaped through the lease machinery (teardown clamps
		// to now, the sweeper releases), plus the silent holder's TTL.
		fail("expiries %d < drops %d: dropped leases were not reaped as expiries", st.Expiries, dropped)
	}
	if uint64(grants) != st.Grants {
		fail("token log has %d grants, server minted %d", grants, st.Grants)
	}
	if st.Held != 0 {
		fail("server still holds %d leases at quiescence", st.Held)
	}
	return what, ok
}
