// Package telemetryhttp exposes a telemetry.Registry over HTTP and expvar.
// It is a separate package so the core telemetry path (linked into every
// service) does not pull net/http into binaries that never serve it.
//
// Typical wiring:
//
//	reg := telemetry.New(telemetry.Options{})
//	http.Handle("/debug/glstat", telemetryhttp.Handler(reg))
//	telemetryhttp.Publish("glstat", reg)
package telemetryhttp

import (
	"expvar"
	"net/http"
	"strconv"

	"gls/telemetry"
)

// Formats the handler serves, with their Content-Type values. The prom
// media type pins the exposition format version, per the Prometheus
// client-library convention.
const (
	contentTypeText = "text/plain; charset=utf-8"
	contentTypeJSON = "application/json"
	contentTypeProm = "text/plain; version=0.0.4; charset=utf-8"
)

// Handler serves the registry's current snapshot: a /proc/lock_stat-style
// text report by default, JSON with ?format=json, Prometheus text
// exposition with ?format=prom, and at most N locks with ?top=N (the
// snapshot is already sorted most-contended first, so top=N is "the N
// worst locks"; 0 means all, matching glsstat's -n flag). Every response
// carries an explicit Content-Type; an unknown ?format= is a 400 naming
// the valid set, never a silent fallback to text.
func Handler(r *telemetry.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		if topStr := req.URL.Query().Get("top"); topStr != "" {
			top, err := strconv.Atoi(topStr)
			if err != nil || top < 0 {
				http.Error(w, "glstat: top must be a non-negative integer", http.StatusBadRequest)
				return
			}
			if top > 0 && top < len(snap.Locks) {
				snap.Locks = snap.Locks[:top]
			}
		}
		switch req.URL.Query().Get("format") {
		case "", "text":
			w.Header().Set("Content-Type", contentTypeText)
			_ = snap.WriteText(w)
		case "json":
			w.Header().Set("Content-Type", contentTypeJSON)
			_ = snap.WriteJSON(w)
		case "prom":
			w.Header().Set("Content-Type", contentTypeProm)
			_ = snap.WritePromText(w)
		default:
			http.Error(w, `glstat: unknown format (valid: "text", "json", "prom")`, http.StatusBadRequest)
		}
	})
}

// Metrics serves the registry as a Prometheus scrape target — the
// conventional /metrics endpoint, equivalent to the Handler's ?format=prom
// but ignoring query parameters, so it can be handed directly to a scrape
// config:
//
//	http.Handle("/metrics", telemetryhttp.Metrics(reg))
func Metrics(r *telemetry.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", contentTypeProm)
		_ = r.Snapshot().WritePromText(w)
	})
}

// Publish registers the registry under name in the process's expvar set, so
// the snapshot appears (as JSON) at the standard /debug/vars endpoint.
// expvar panics on duplicate names, matching its stdlib contract.
func Publish(name string, r *telemetry.Registry) {
	expvar.Publish(name, Var(r))
}

// Var wraps the registry as an expvar.Var without registering it.
func Var(r *telemetry.Registry) expvar.Var {
	return expvar.Func(func() any { return r.Snapshot() })
}
