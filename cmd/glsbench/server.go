package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gls/client"
	"gls/internal/figures"
	"gls/internal/scenario"
	"gls/server"
)

// The -server family measures glsd, the network-facing lock service, end to
// end: an in-process server on loopback, a sweep of concurrent client
// connections, and an open-loop load generator — arrivals are paced by the
// clock, not by completions, so latency reflects queueing under a fixed
// offered rate rather than the generator backing off. Each point then runs
// a second phase: a quarter of the connections park a waiter on one held
// key, and the release cascade is timed — exercising the server's claim
// that a blocked waiter costs one goroutine parked in the key's FIFO queue
// and no CPU, so the cascade is one direct hand-off per waiter. The phases
// are sequential so the latency columns and drain_ms each measure one thing
// (EXPERIMENTS.md has the small-machine caveats). The JSON it emits
// (BENCH_glsd.json) is the wire-path perf trajectory.

// serverResult is one measured sweep point.
type serverResult struct {
	Conns         int     `json:"conns"`
	ParkedWaiters int     `json:"parked_waiters"`
	OfferedPerSec float64 `json:"offered_ops_per_sec"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	Busy          int64   `json:"busy"`
	P50us         float64 `json:"p50_us"`
	P95us         float64 `json:"p95_us"`
	P99us         float64 `json:"p99_us"`
	Goroutines    int     `json:"goroutines"` // bench + server, sampled mid-window
	DrainMS       float64 `json:"drain_ms"`   // parked-waiter cascade after release
}

// serverReport is the file-level JSON schema.
type serverReport struct {
	GeneratedBy string         `json:"generated_by"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	DurationMS  int64          `json:"duration_ms_per_point"`
	Results     []serverResult `json:"results"`
}

// serverSweep is the connection axis. The top point is the acceptance bar:
// a thousand-plus concurrent sessions on one server.
func serverSweep(quick bool) []int {
	if quick {
		return []int{16, 64}
	}
	return []int{64, 256, 1024}
}

// runServer measures the sweep against a fresh in-process glsd and writes
// the JSON report to path ("-" for stdout).
func runServer(path string, progress io.Writer, s figures.Scale) error {
	srv, err := server.New(server.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	go func() { _ = srv.Serve(ln) }()
	addr := ln.Addr().String()

	d := s.Duration
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond // pacing needs a few intervals per conn
	}
	report := serverReport{
		GeneratedBy: "glsbench -server",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		DurationMS:  d.Milliseconds(),
	}
	// Offered aggregate rate, split evenly across connections. Deliberately
	// below saturation: open-loop latency is only meaningful while the
	// server keeps up (see EXPERIMENTS.md on reading these numbers from a
	// small machine).
	offered := 4000.0
	if s.Quick {
		offered = 1000.0
	}

	for _, conns := range serverSweep(s.Quick) {
		res, err := serverPoint(addr, conns, offered, d)
		if err != nil {
			return fmt.Errorf("%d conns: %w", conns, err)
		}
		report.Results = append(report.Results, res)
		fmt.Fprintf(progress, "conns=%-5d parked=%-4d offered=%6.0f ops/s  achieved=%7.0f ops/s  busy=%-5d p50=%6.0fµs p95=%6.0fµs p99=%6.0fµs  drain=%.1fms\n",
			res.Conns, res.ParkedWaiters, res.OfferedPerSec, res.OpsPerSec, res.Busy, res.P50us, res.P95us, res.P99us, res.DrainMS)
	}

	return writeJSON(path, report)
}

// serverPoint runs one sweep point: dial conns sessions, park conns/4
// waiters on a held key, drive the paced load from every connection, then
// release the key and time the grant cascade.
func serverPoint(addr string, conns int, offered float64, d time.Duration) (serverResult, error) {
	// The hot parked-on key; the paced keyspace starts above it.
	const parkKey = 1

	clients := make([]*client.Conn, conns)
	var dialWG sync.WaitGroup
	var dialErr atomic.Value
	sem := make(chan struct{}, 64)
	for i := range clients {
		dialWG.Add(1)
		go func(i int) {
			defer dialWG.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c, err := client.Dial(addr)
			if err != nil {
				dialErr.Store(err)
				return
			}
			clients[i] = c
		}(i)
	}
	dialWG.Wait()
	defer func() {
		for _, c := range clients {
			if c != nil {
				_ = c.Close()
			}
		}
	}()
	if err, _ := dialErr.Load().(error); err != nil {
		return serverResult{}, err
	}

	// Phase 1 — the paced load: every connection issues trylock/unlock
	// round trips on a wide keyspace at interval = conns/offered, catching
	// up (not backing off) when a round trip overruns — the open-loop
	// discipline.
	interval := time.Duration(float64(conns) / offered * float64(time.Second))
	var stop atomic.Bool
	var busy atomic.Int64
	lats := make([][]time.Duration, conns)
	var loadWG sync.WaitGroup
	var opErr atomic.Value
	start := time.Now()
	for i, c := range clients {
		loadWG.Add(1)
		go func(i int, c *client.Conn) {
			defer loadWG.Done()
			rng := rand.New(rand.NewSource(int64(i)*2654435761 + 12345))
			next := time.Now()
			for !stop.Load() {
				next = next.Add(interval)
				if wait := time.Until(next); wait > 0 {
					time.Sleep(wait)
				}
				key := uint64(2 + rng.Intn(conns*8))
				t0 := time.Now()
				_, err := c.TryLock(key, 0)
				if err != nil {
					if err == client.ErrBusy {
						busy.Add(1)
						continue
					}
					opErr.Store(err)
					return
				}
				lats[i] = append(lats[i], time.Since(t0))
				if err := c.Unlock(key); err != nil {
					opErr.Store(err)
					return
				}
			}
		}(i, c)
	}
	time.Sleep(d / 2)
	goroutines := runtime.NumGoroutine()
	time.Sleep(d / 2)
	stop.Store(true)
	loadWG.Wait()
	elapsed := time.Since(start)
	if err, _ := opErr.Load().(error); err != nil {
		return serverResult{}, err
	}

	// Phase 2 — parked waiters. A control connection holds the park key, a
	// quarter of the sessions enqueue behind it (each blocks a bench
	// goroutine here; on the server each is one goroutine parked in the
	// key's FIFO queue), and the release cascade is timed: every waiter is
	// granted in turn and unlocks as it wakes.
	control, err := client.Dial(addr)
	if err != nil {
		return serverResult{}, err
	}
	defer control.Close()
	if _, err := control.TryLock(parkKey, 5*time.Minute); err != nil {
		return serverResult{}, fmt.Errorf("hold park key: %w", err)
	}
	parked := conns / 4
	parkDone := make(chan error, parked)
	for i := 0; i < parked; i++ {
		go func(c *client.Conn) {
			_, err := c.Lock(context.Background(), parkKey, 30*time.Second, 5*time.Minute)
			if err == nil {
				err = c.Unlock(parkKey)
			}
			parkDone <- err
		}(clients[i*4])
	}
	// Every waiter is registered once the server's waiting gauge says so —
	// QUEUED precedes GRANT on the wire, so from here the cascade timing
	// starts with all of them in place.
	for {
		st, err := control.Stats()
		if err != nil {
			return serverResult{}, err
		}
		if st["waiting"] >= uint64(parked) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	if err := control.Unlock(parkKey); err != nil {
		return serverResult{}, fmt.Errorf("release park key: %w", err)
	}
	for i := 0; i < parked; i++ {
		if err := <-parkDone; err != nil {
			return serverResult{}, fmt.Errorf("parked waiter: %w", err)
		}
	}
	drain := time.Since(t0)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	return serverResult{
		Conns:         conns,
		ParkedWaiters: parked,
		OfferedPerSec: offered,
		OpsPerSec:     float64(len(all)) / elapsed.Seconds(),
		Busy:          busy.Load(),
		P50us:         scenario.PctUS(all, 0.50),
		P95us:         scenario.PctUS(all, 0.95),
		P99us:         scenario.PctUS(all, 0.99),
		Goroutines:    goroutines,
		DrainMS:       float64(drain) / float64(time.Millisecond),
	}, nil
}
