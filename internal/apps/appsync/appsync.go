// Package appsync is the seam through which the application models obtain
// their locks — the Go analogue of the paper's §5 technique of overloading
// the pthread mutex functions: "In most systems, modifying locks is as
// simple as overloading the pthread mutex functions with our own lock
// implementations."
//
// Every model asks a Provider for its locks by role name. Swapping the
// Provider re-locks the whole application: raw MUTEX/TICKET/MCS baselines,
// GLK, GLS-mediated GLK, or a GLS-specialized per-role assignment, without
// touching application code.
package appsync

import (
	"hash/fnv"
	"sync"

	"gls"
	"gls/glk"
	"gls/locks"
	"gls/telemetry"
)

// roleKey derives a stable non-zero telemetry key from a role name, for
// the providers that do not already map roles to service keys.
func roleKey(role string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(role))
	k := h.Sum64()
	if k == 0 {
		k = 1
	}
	return k
}

// Provider hands out named locks to an application model.
type Provider interface {
	// GetLock returns the lock for role, creating it on first use. Calls
	// with the same role return the same lock.
	GetLock(role string) locks.Lock
	// InitLock declares role before use — the pthread_mutex_init analogue.
	// Models call it for every lock they initialize properly; buggy models
	// skip it for some locks (paper §5.1).
	InitLock(role string)
	// GetRWLock returns the reader-writer lock for role. The paper's
	// systems evaluation overloads pthread rwlocks with a TTAS-based
	// implementation for every non-MUTEX configuration (§5.2 footnote 7).
	GetRWLock(role string) locks.RWLock
}

// Raw provides plain locks of one algorithm — the MUTEX/TICKET/MCS
// baselines of Figures 13-15.
type Raw struct {
	algo locks.Algorithm
	tele *telemetry.Registry

	mu  sync.Mutex
	m   map[string]locks.Lock
	rwm map[string]locks.RWLock
}

// NewRaw returns a provider creating locks of algorithm a.
func NewRaw(a locks.Algorithm) *Raw {
	return &Raw{algo: a, m: make(map[string]locks.Lock), rwm: make(map[string]locks.RWLock)}
}

// WithTelemetry makes every lock the provider hands out feed reg, with the
// role name as its label — per-role contention for the modelled systems
// (ROADMAP telemetry follow-up; glsbench -contention reads it). Call
// before the first GetLock; returns r for chaining.
func (r *Raw) WithTelemetry(reg *telemetry.Registry) *Raw {
	r.tele = reg
	return r
}

// GetLock implements Provider.
func (r *Raw) GetLock(role string) locks.Lock {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.m[role]
	if !ok {
		l = locks.New(r.algo)
		if r.tele != nil {
			k := roleKey(role)
			r.tele.SetLabel(k, role)
			l = telemetry.Instrument(l, r.tele.Register(k, r.algo.String()))
		}
		r.m[role] = l
	}
	return l
}

// InitLock implements Provider.
func (r *Raw) InitLock(role string) { r.GetLock(role) }

// GetRWLock implements Provider.
func (r *Raw) GetRWLock(role string) locks.RWLock {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.rwm[role]
	if !ok {
		kind := "rwttas"
		if r.algo == locks.Mutex {
			l = newMutexRW()
			kind = "rwmutex"
		} else {
			l = locks.NewRWTTAS()
		}
		if r.tele != nil {
			k := roleKey(role)
			r.tele.SetLabel(k, role)
			l = telemetry.InstrumentRW(l, r.tele.Register(k, kind))
		}
		r.rwm[role] = l
	}
	return l
}

// GLK provides adaptive locks — the GLK bars of Figures 13-15 (direct GLK,
// no GLS indirection). Reader-writer roles get the adaptive glsrw lock:
// the paper's footnote-7 TTAS substitution is what the RWTTAS baseline
// models, while the GLK configuration adapts both lock species.
type GLK struct {
	cfg  *glk.Config
	tele *telemetry.Registry

	mu  sync.Mutex
	m   map[string]locks.Lock
	rwm map[string]locks.RWLock
}

// NewGLK returns a provider creating GLK locks with the given config.
func NewGLK(cfg *glk.Config) *GLK {
	return &GLK{cfg: cfg, m: make(map[string]locks.Lock), rwm: make(map[string]locks.RWLock)}
}

// WithTelemetry makes every lock the provider hands out feed reg with the
// role name as its label, like Raw.WithTelemetry — GLK locks get the hooks
// compiled in natively. Call before the first GetLock.
func (g *GLK) WithTelemetry(reg *telemetry.Registry) *GLK {
	g.tele = reg
	return g
}

// GetLock implements Provider.
func (g *GLK) GetLock(role string) locks.Lock {
	g.mu.Lock()
	defer g.mu.Unlock()
	l, ok := g.m[role]
	if !ok {
		if g.tele != nil {
			k := roleKey(role)
			g.tele.SetLabel(k, role)
			var cfg glk.Config
			if g.cfg != nil {
				cfg = *g.cfg
			}
			cfg.Stats = g.tele.Register(k, "glk")
			l = glk.New(&cfg)
		} else {
			l = glk.New(g.cfg)
		}
		g.m[role] = l
	}
	return l
}

// InitLock implements Provider.
func (g *GLK) InitLock(role string) { g.GetLock(role) }

// GetRWLock implements Provider.
func (g *GLK) GetRWLock(role string) locks.RWLock {
	g.mu.Lock()
	defer g.mu.Unlock()
	l, ok := g.rwm[role]
	if !ok {
		if g.tele != nil {
			k := roleKey(role)
			g.tele.SetLabel(k, role)
			l = glk.NewRW(&glk.RWConfig{Stats: g.tele.Register(k, "glkrw")})
		} else {
			l = glk.NewRW(nil)
		}
		g.rwm[role] = l
	}
	return l
}

// Locks returns the GLK locks created so far, keyed by role — used to
// inspect per-lock modes after a run (cf. the paper's per-lock adaptation
// in MySQL, §5.2).
func (g *GLK) Locks() map[string]*glk.Lock {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]*glk.Lock, len(g.m))
	for role, l := range g.m {
		if gl, ok := l.(*glk.Lock); ok {
			out[role] = gl
		}
	}
	return out
}

// GLS provides locks backed by a gls.Service — the GLS bars of Figure 13.
// Each role maps to a service key; lock operations go through the service
// (hash lookup included), so the middleware's overhead is part of the
// measurement — reader-writer roles included, which route through the
// glsrw surface (Service.RLock and friends) rather than reaching around
// the service the way earlier revisions did. An optional Specialize
// function picks an explicit algorithm per role (the GLS SPECIALIZED
// configuration); roles it maps to zero use the default GLK. When the
// service carries a telemetry registry, every role's key is labelled with
// the role name, so the registry reports per-role contention for free.
type GLS struct {
	svc        *gls.Service
	specialize func(role string) locks.Algorithm

	mu   sync.Mutex
	keys map[string]uint64
	next uint64
}

// NewGLS returns a provider backed by svc. specialize may be nil.
func NewGLS(svc *gls.Service, specialize func(role string) locks.Algorithm) *GLS {
	return &GLS{
		svc:        svc,
		specialize: specialize,
		keys:       make(map[string]uint64),
		next:       0x1000,
	}
}

// keyFor maps a role to a stable service key, labelling it in the
// service's telemetry registry (if any) on first assignment.
func (p *GLS) keyFor(role string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	k, ok := p.keys[role]
	if !ok {
		p.next++
		k = p.next
		p.keys[role] = k
		if reg := p.svc.Telemetry(); reg != nil {
			reg.SetLabel(k, role)
		}
	}
	return k
}

// glsLock adapts a (service, key, algorithm) triple to locks.Lock.
type glsLock struct {
	svc  *gls.Service
	key  uint64
	algo locks.Algorithm // 0 = GLK default
}

func (g glsLock) Lock() {
	if g.algo != 0 {
		g.svc.LockWith(g.algo, g.key)
		return
	}
	g.svc.Lock(g.key)
}

func (g glsLock) TryLock() bool {
	if g.algo != 0 {
		return g.svc.TryLockWith(g.algo, g.key)
	}
	return g.svc.TryLock(g.key)
}

func (g glsLock) Unlock() { g.svc.Unlock(g.key) }

// GetLock implements Provider.
func (p *GLS) GetLock(role string) locks.Lock {
	var algo locks.Algorithm
	if p.specialize != nil {
		algo = p.specialize(role)
	}
	return glsLock{svc: p.svc, key: p.keyFor(role), algo: algo}
}

// InitLock implements Provider.
func (p *GLS) InitLock(role string) {
	var algo locks.Algorithm
	if p.specialize != nil {
		algo = p.specialize(role)
	}
	if algo == 0 {
		// Unspecialized roles take the GLK default; the zero Algorithm is
		// GLS-internal and InitLockWith rejects it like every *With entry.
		p.svc.InitLock(p.keyFor(role))
		return
	}
	p.svc.InitLockWith(algo, p.keyFor(role))
}

// glsRWLock adapts a (service, key) pair to locks.RWLock: the write side
// is the exclusive surface, the read side the glsrw surface.
type glsRWLock struct {
	svc *gls.Service
	key uint64
}

func (g glsRWLock) Lock()          { g.svc.Lock(g.key) }
func (g glsRWLock) TryLock() bool  { return g.svc.TryLock(g.key) }
func (g glsRWLock) Unlock()        { g.svc.Unlock(g.key) }
func (g glsRWLock) RLock()         { g.svc.RLock(g.key) }
func (g glsRWLock) TryRLock() bool { return g.svc.TryRLock(g.key) }
func (g glsRWLock) RUnlock()       { g.svc.RUnlock(g.key) }

// GetRWLock implements Provider. The role's key is introduced through
// InitRWLock so its species is fixed as reader-writer before any
// exclusive entry point can auto-create it the other way.
func (p *GLS) GetRWLock(role string) locks.RWLock {
	k := p.keyFor(role)
	p.svc.InitRWLock(k)
	return glsRWLock{svc: p.svc, key: k}
}

// Key exposes the service key for a role (debug demos print them).
func (p *GLS) Key(role string) uint64 { return p.keyFor(role) }

// mutexRW is the blocking reader-writer lock used by the MUTEX baseline
// (the stand-in for pthread_rwlock). It parks writers and readers on a
// MutexLock pair: simple, blocking, writer-exclusive.
type mutexRW struct {
	mu      locks.MutexLock
	readers locks.MutexLock // guards rcount
	rcount  int
}

func newMutexRW() *mutexRW { return &mutexRW{} }

func (l *mutexRW) Lock()   { l.mu.Lock() }
func (l *mutexRW) Unlock() { l.mu.Unlock() }

func (l *mutexRW) TryLock() bool { return l.mu.TryLock() }

func (l *mutexRW) RLock() {
	l.readers.Lock()
	l.rcount++
	if l.rcount == 1 {
		l.mu.Lock()
	}
	l.readers.Unlock()
}

func (l *mutexRW) RUnlock() {
	l.readers.Lock()
	l.rcount--
	if l.rcount == 0 {
		l.mu.Unlock()
	}
	l.readers.Unlock()
}

func (l *mutexRW) TryRLock() bool {
	l.readers.Lock()
	defer l.readers.Unlock()
	if l.rcount == 0 {
		if !l.mu.TryLock() {
			return false
		}
	}
	l.rcount++
	return true
}
