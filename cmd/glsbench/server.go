package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"gls/client"
	"gls/internal/figures"
	"gls/internal/harness"
	"gls/server"
)

// The -server family measures glsd, the network-facing lock service, end to
// end: an in-process server on loopback, a sweep of concurrent client
// connections, and an open-loop load on harness.Pace — arrivals are paced by
// the clock, not by completions, and spread evenly over each connection's
// interval. p50/p95/p99 are service times, from the TryLock call to its
// reply; resp_p50/resp_p99 are response times, from the intended arrival, so
// a backlog behind an overrun round trip shows there; late counts the round
// trips already due when their connection reached them. Each point then runs
// a second phase: a quarter of the connections park a waiter on one held
// key, and the release cascade is timed — exercising the server's claim
// that a blocked waiter costs one goroutine parked in the key's FIFO queue
// and no CPU, so the cascade is one direct hand-off per waiter. The phases
// are sequential so the latency columns and drain_ms each measure one thing
// (EXPERIMENTS.md has the small-machine caveats). The committed
// BENCH_glsd.json predates the even spread: its pacer sent every
// connection's round trip at once, and its latency columns price that burst.

// serverResult is one measured sweep point.
type serverResult struct {
	Conns         int     `json:"conns"`
	ParkedWaiters int     `json:"parked_waiters"`
	OfferedPerSec float64 `json:"offered_ops_per_sec"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	Busy          int64   `json:"busy"`
	P50us         float64 `json:"p50_us"` // service time: the TryLock call to its reply
	P95us         float64 `json:"p95_us"`
	P99us         float64 `json:"p99_us"`
	RespP50us     float64 `json:"resp_p50_us"` // response time: the intended arrival to the reply
	RespP99us     float64 `json:"resp_p99_us"`
	Late          uint64  `json:"late"`       // ops already due when their connection reached them
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
	// Offered aggregate rate, split evenly across connections, below
	// saturation (EXPERIMENTS.md reads these numbers on a small machine).
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
		fmt.Fprintf(progress, "conns=%-5d parked=%-4d offered=%6.0f ops/s  achieved=%7.0f ops/s  busy=%-5d p50=%6.0fµs p95=%6.0fµs p99=%6.0fµs  resp p50=%6.0fµs p99=%6.0fµs late=%-5d drain=%.1fms\n",
			res.Conns, res.ParkedWaiters, res.OfferedPerSec, res.OpsPerSec, res.Busy, res.P50us, res.P95us, res.P99us, res.RespP50us, res.RespP99us, res.Late, res.DrainMS)
	}

	return writeJSON(path, report)
}

// serverPoint runs one sweep point: dial conns sessions, park conns/4
// waiters on a held key, drive the paced load from every connection, then
// release the key and time the grant cascade.
func serverPoint(addr string, conns int, offered float64, d time.Duration) (serverResult, error) {
	// The hot parked-on key; the paced keyspace starts above it.
	const parkKey = 1

	clients := make([]*client.Conn, 0, conns)
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	for range conns {
		c, err := client.Dial(addr)
		if err != nil {
			return serverResult{}, err
		}
		clients = append(clients, c)
	}

	// Phase 1 — the paced load: every connection issues trylock/unlock
	// round trips on a wide keyspace, one per conns/offered, catching up
	// (not backing off) when a round trip overruns.
	interval := time.Duration(float64(conns) / offered * float64(time.Second))
	sampled := make(chan int, 1)
	time.AfterFunc(d/2, func() { sampled <- runtime.NumGoroutine() })
	paced, err := harness.Pace(conns, 1, nil, interval, d, func(w *harness.Worker, _ int) (time.Time, error) {
		c, key := clients[w.ID], 2+w.Rng.Uintn(uint64(conns*8))
		if _, err := c.TryLock(key, 0); err != nil {
			if errors.Is(err, client.ErrBusy) {
				err = nil
			}
			return time.Time{}, err
		}
		return time.Now(), c.Unlock(key)
	})
	if err != nil {
		return serverResult{}, err
	}
	goroutines := <-sampled

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

	served := len(paced.Service)
	return serverResult{
		Conns:         conns,
		ParkedWaiters: parked,
		OfferedPerSec: offered,
		OpsPerSec:     float64(served) / paced.Elapsed.Seconds(),
		Busy:          int64(paced.Issued) - int64(served),
		P50us:         harness.PctUS(paced.Service, 0.50),
		P95us:         harness.PctUS(paced.Service, 0.95),
		P99us:         harness.PctUS(paced.Service, 0.99),
		RespP50us:     harness.PctUS(paced.Response, 0.50),
		RespP99us:     harness.PctUS(paced.Response, 0.99),
		Late:          paced.Late,
		Goroutines:    goroutines,
		DrainMS:       float64(drain) / float64(time.Millisecond),
	}, nil
}
