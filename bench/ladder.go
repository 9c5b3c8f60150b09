package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"

	"gls"
	"gls/client"
	"gls/glk"
	"gls/locks"
	"gls/server"
	"gls/telemetry"
)

// The ladder separates layers the benchmark cannot see into. This change
// may not edit the program, so instead of spans inside it the run's own key
// sequence (slot 0's) is replayed, by one goroutine with nothing
// contending, against each package's public entry point alone; a layer's
// cost is its rung minus the rung below.

const ladderSlices = 11

// rung returns the median over slices of the ns one op(pos) takes, walking
// pos cyclically over [0,n). batch is how many ops run between clock reads.
func rung(cfg config, n, batch int, op func(pos int)) float64 {
	slice := int64(cfg.rung) / (ladderSlices + 1)
	pos := 0
	var ns []float64
	for s := 0; s <= ladderSlices; s++ {
		start, ops := now(), 0
		end := start
		for end-start < slice {
			for j := 0; j < batch; j++ {
				op(pos)
				if pos++; pos == n {
					pos = 0
				}
			}
			ops += batch
			end = now()
		}
		if s > 0 { // slice 0 warms up
			ns = append(ns, float64(end-start)/float64(ops))
		}
	}
	return median(ns)
}

func ladder(cfg config, p *plan, m map[string]float64) error {
	seq := p.seqs[0]
	keys := make([]uint64, len(seq)) // the sequence as keys
	for i, e := range seq {
		keys[i] = p.keys[e&^writeBit]
	}
	n := len(seq)
	const batch = 256

	// locks: a bare ticket lock per key, in a private array.
	ticket := make([]locks.Lock, len(p.keys))
	for i := range ticket {
		ticket[i] = locks.New(locks.Ticket)
	}
	m["locks.ticket_ns"] = rung(cfg, n, batch, func(pos int) {
		l := ticket[seq[pos]&^writeBit]
		l.Lock()
		l.Unlock()
	})

	// glk: the adaptive lock, same array shape.
	adaptive := make([]*glk.Lock, len(p.keys))
	for i := range adaptive {
		adaptive[i] = glk.New(nil)
	}
	m["glk.lock_ns"] = rung(cfg, n, batch, func(pos int) {
		l := adaptive[seq[pos]&^writeBit]
		l.Lock()
		l.Unlock()
	})

	// gls: the service finds the lock by key.
	service := func(opts gls.Options) float64 {
		svc := gls.New(opts)
		defer svc.Close()
		for _, k := range p.keys {
			svc.InitLock(k)
		}
		return rung(cfg, n, batch, func(pos int) {
			svc.Lock(keys[pos])
			svc.Unlock(keys[pos])
		})
	}
	m["gls.service_ns"] = service(gls.Options{})
	m["gls.lookup_ns"] = m["gls.service_ns"] - m["glk.lock_ns"]
	m["telemetry.on_delta_ns"] = service(gls.Options{Telemetry: telemetry.New(telemetry.Options{})}) - m["gls.service_ns"]

	// gls handle: both lookups hit the one-entry cache, or Lock misses it.
	svc := gls.New(gls.Options{})
	defer svc.Close()
	other := inprocKey(1 << 20) // a second key for one-key sequences
	for _, k := range append([]uint64{other}, p.keys...) {
		svc.InitLock(k)
	}
	h := svc.NewHandle()
	m["gls.handle_hit_ns"] = rung(cfg, n, batch, func(int) {
		h.Lock(keys[0])
		h.Unlock(keys[0])
	})
	missKeys := keys
	if len(p.keys) == 1 {
		missKeys = []uint64{keys[0], other}
	}
	m["gls.handle_miss_ns"] = rung(cfg, len(missKeys), batch, func(pos int) {
		h.Lock(missKeys[pos])
		h.Unlock(missKeys[pos])
	})

	// gls reader-writer keys: the read path and the write path apart.
	rwk := make([]uint64, rwKeys)
	for i := range rwk {
		rwk[i] = inprocKey(1<<20 + 1 + i)
		svc.InitRWLock(rwk[i])
	}
	m["gls.rlock_ns"] = rung(cfg, n, batch, func(pos int) {
		k := rwk[seq[pos]%rwKeys]
		svc.RLock(k)
		svc.RUnlock(k)
	})
	m["gls.wlock_ns"] = rung(cfg, n, batch, func(pos int) {
		k := rwk[seq[pos]%rwKeys]
		svc.Lock(k)
		svc.Unlock(k)
	})

	// gls churn: what glsd's default (KeepIdleLocks=false) pays per op.
	churn := gls.New(gls.Options{})
	defer churn.Close()
	m["gls.create_free_ns"] = rung(cfg, n, batch, func(pos int) {
		churn.InitLock(keys[pos])
		churn.Free(keys[pos])
	})
	grantPath := rung(cfg, n, batch, func(pos int) { // the service calls under one wire op
		churn.TryLock(keys[pos])
		churn.Unlock(keys[pos])
		churn.Free(keys[pos])
	})

	// net: one slot, one connection, no queueing.
	echo, err := newEchoServer()
	if err != nil {
		return err
	}
	defer echo.close()
	ec, err := echo.dial()
	if err != nil {
		return err
	}
	defer ec.c.Close()
	var echoErr error
	m["net.echo_rtt_us"] = rung(cfg, 1, 8, func(int) {
		if err := ec.roundTrip(probeLine); err != nil {
			echoErr = err
		}
	}) / 1e3
	if echoErr != nil {
		return echoErr
	}

	if p.wire() {
		if err := wireRungs(cfg, p, keys, grantPath, m); err != nil {
			return err
		}
	}

	// A table far larger than L2, visited out of order: informational, the
	// memory system sets it. Last, so its garbage is nobody else's.
	big := gls.New(gls.Options{SizeHint: cfg.bigKeys})
	defer big.Close()
	for i := 0; i < cfg.bigKeys; i++ {
		big.InitLock(inprocKey(i))
	}
	runtime.GC()                                         // or the cycle its 400 MB set off marks beside the rung
	stride := int(float64(cfg.bigKeys)*0.6180339887) | 1 // odd, and bigKeys is a power of two: a full cycle
	at := 0
	m["gls.bigtable_ns"] = rung(cfg, 1, batch, func(int) {
		k := inprocKey(at)
		if at += stride; at >= cfg.bigKeys {
			at -= cfg.bigKeys
		}
		big.Lock(k)
		big.Unlock(k)
	})
	return nil
}

// wireRungs replays the sequence through the parser alone and through one
// unqueued session, and charges the server what is left of a round trip
// after the network, the parser and the service calls are paid.
func wireRungs(cfg config, p *plan, keys []uint64, grantPathNS float64, m map[string]float64) error {
	// The exact request lines client.Conn sends for one op.
	lines := func(k uint64) []string {
		key := "0x" + strconv.FormatUint(k, 16)
		ttl := strconv.FormatInt(wireTTL.Milliseconds(), 10)
		if p.workload == wlHandoff {
			return []string{"wait 1 " + key + " " + ttl + " " + strconv.FormatInt(wireTimeout.Milliseconds(), 10), "token " + key, "unlock " + key}
		}
		return []string{"trylock " + key + " " + ttl, "unlock " + key}
	}
	reqs := make([][]string, len(keys))
	for i, k := range keys {
		reqs[i] = lines(k)
	}
	var parseErr *server.ProtoError
	m["server.parse_ns"] = rung(cfg, len(keys), 64, func(pos int) {
		for _, l := range reqs[pos] {
			if _, err := server.ParseCommand(l, 0); err != nil {
				parseErr = err
			}
		}
	})
	if parseErr != nil {
		return parseErr
	}

	srv, err := server.New(server.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve(ln) }() // returns when Close closes ln
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	var opErr error
	note := func(err error) {
		if err != nil {
			opErr = err
		}
	}
	op := func(pos int) {
		_, err := c.TryLock(keys[pos], wireTTL)
		note(err)
		note(c.Unlock(keys[pos]))
	}
	if p.workload == wlHandoff {
		op = func(pos int) {
			_, err := c.Lock(context.Background(), keys[pos], wireTTL, wireTimeout)
			note(err)
			_, err = c.Token(keys[pos])
			note(err)
			note(c.Unlock(keys[pos]))
		}
	}
	rttUS := rung(cfg, len(keys), 8, op) / 1e3
	if opErr != nil {
		return fmt.Errorf("unqueued session: %w", opErr)
	}
	trips := float64(len(reqs[0]))
	m["server.dispatch_us"] = rttUS - trips*m["net.echo_rtt_us"] - (m["server.parse_ns"]+grantPathNS)/1e3
	return nil
}
