// Command glsd runs the GLS lock server: a TCP service speaking the glsd
// line protocol (sessions, leases, fencing tokens, async waits, batched
// ops — see package server and DESIGN.md §14) over a gls.Service,
// with the service's telemetry served over HTTP so glsstat can watch it
// live.
//
// Usage:
//
//	glsd [-addr :4850] [-stats :4851] [-queue N] [-ttl D] [-max-ttl D] [-sweep D] [-quiet]
//
// The stats listener serves the glstat lock report at / (text, ?format=json,
// ?format=prom, ?top=N — point glsstat -top at it), a Prometheus scrape
// target at /metrics, and the server's own session/lease counters as JSON
// at /server.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gls"
	"gls/server"
	"gls/telemetry"
	"gls/telemetry/telemetryhttp"
)

// The flags are package-level so the doc-command lint (main_test.go) can
// ask flag.Lookup which flags exist.
var (
	addr   = flag.String("addr", ":4850", "lock protocol listen address")
	stats  = flag.String("stats", ":4851", "stats HTTP listen address (empty disables)")
	queue  = flag.Int("queue", 0, "outstanding wait/lockmany bound (0 = 1024)")
	ttl    = flag.Duration("ttl", 0, "default lease TTL (0 = 10s)")
	maxTTL = flag.Duration("max-ttl", 0, "lease TTL cap (0 = 60s)")
	sweep  = flag.Duration("sweep", 0, "expiry sweep interval (0 = 50ms, min 10ms)")
	quiet  = flag.Bool("quiet", false, "suppress log output")
)

func main() {
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "glsd: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	reg := telemetry.New(telemetry.Options{})
	srv, err := server.New(server.Options{
		Service:       gls.Options{Telemetry: reg},
		DefaultTTL:    *ttl,
		MaxTTL:        *maxTTL,
		SweepInterval: *sweep,
		QueueDepth:    *queue,
		Logf:          logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "glsd: %v\n", err)
		os.Exit(1)
	}

	ln, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "glsd: %v\n", err)
		os.Exit(1)
	}
	logf("glsd: serving locks on %s", ln.Addr())

	if *stats != "" {
		mux := http.NewServeMux()
		mux.Handle("/", telemetryhttp.Handler(reg))
		mux.Handle("/metrics", telemetryhttp.Metrics(reg))
		mux.HandleFunc("/server", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(srv.Stats())
		})
		hs := &http.Server{Addr: *stats, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			logf("glsd: serving stats on %s", *stats)
			if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logf("glsd: stats server: %v", err)
			}
		}()
		defer hs.Close()
	}

	// Serve until SIGINT/SIGTERM, then drain: sessions tear down, their
	// leases clamp and sweep, every lock comes back before exit.
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			fmt.Fprintf(os.Stderr, "glsd: %v\n", err)
			os.Exit(1)
		}
	case s := <-sig:
		logf("glsd: %v, shutting down", s)
	}
	srv.Close()
	logf("glsd: stopped")
}
