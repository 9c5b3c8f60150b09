package scenario

import (
	"fmt"
	"io"
	"time"

	"gls"
	"gls/glk"
	"gls/internal/sysmon"
	"gls/server"
	"gls/telemetry"
)

// The quick transform: durations ÷ quickDiv, floored at quickFloor, so a
// smoke run still spans a few pacing intervals and at least one sysmon
// round per phase.
const (
	quickDiv   = 4
	quickFloor = 60 * time.Millisecond
)

// Quick returns the quick-scaled copy of s that `glsbench -scenario -quick`
// and the golden-scenario suite both run.
func (s *Scenario) Quick() *Scenario { return s.Scaled(quickDiv, quickFloor) }

// RunRig builds the one rig every scenario run uses — registry, monitor,
// and the in-process Service or (wire) a fresh glsd on loopback — runs the
// plan on it, and tears it down.
func RunRig(plan *Plan, wire bool, progress io.Writer) (*Report, error) {
	scn := plan.Scenario
	// glsd has no read side. The service's reader-writer keys are created
	// before the first phase, so no exclusive phase creates one first.
	svcRW := false
	for _, ph := range scn.Phases {
		if wire && ph.RW() {
			return nil, fmt.Errorf("scenario %s: phase %s is a reader-writer phase, and glsd has no read side", scn.Name, ph.Name)
		}
		svcRW = svcRW || ph.RW() && ph.RWLock == ""
	}
	// The registry carries the event stream behind `expect transition`.
	reg := telemetry.New(telemetry.Options{})
	// A private probe-less monitor: only `mphint` directives move the
	// multiprogramming flag, never the host's own scheduling noise.
	mon := sysmon.New(sysmon.Options{DisableProbes: true})
	mon.Start()
	defer mon.Stop()
	svcOpts := gls.Options{
		SizeHint: int(scn.Keys),
		GLK: &glk.Config{
			SamplePeriod: scn.GLKSample,
			AdaptPeriod:  scn.GLKAdapt,
			Monitor:      mon,
		},
		GLKRW:     &glk.RWConfig{Monitor: mon},
		Telemetry: reg,
	}

	var drv Driver
	if wire {
		srv, err := server.New(server.Options{Service: svcOpts})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		ln, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go func() { _ = srv.Serve(ln) }()
		drv = NewWireDriver(ln.Addr().String())
	} else {
		svc := gls.New(svcOpts)
		defer svc.Close()
		for k := uint64(1); svcRW && k <= scn.Keys; k++ {
			svc.InitRWLock(k)
		}
		drv = &ServiceDriver{Svc: svc}
	}
	defer drv.Close()

	return run(plan, drv, options{Registry: reg, Monitor: mon, Progress: progress})
}
