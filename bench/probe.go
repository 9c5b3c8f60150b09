package main

import (
	"runtime"
	"sync"
	"sync/atomic"

	"gls/internal/xrand"
)

// The in-process speed probes. Between workload phases the same driver
// loop runs the workload's own access pattern on standard-library parts:
// direct locking, the baseline the paper reports GLS against. A probe holds
// no code of this repository, so when its speed moves the machine moved;
// and it has its workload's shape, because a probe of another shape drifts
// apart from it when the machine's speed shifts (the two vCPUs of the
// reference box move between near and far cores for seconds at a time:
// private work barely notices, a cache line passed between the workers
// costs twice as much).

// ---- inproc_spread: a private walk ----

// probeCell is one line: a private mutex and the counter it protects.
type probeCell struct {
	mu sync.Mutex
	n  uint64
	_  [48]byte
}

type walkSlot struct {
	cells []probeCell
	order []uint32
	pos   int
	_     slotPad
}

// walkProbe: each worker walks its own array of sync.Mutex cells in seeded
// order, locking, bumping and unlocking each — an L2-resident random walk
// and two atomic operations per op, like a lock embedded in each object.
type walkProbe struct{ walks []walkSlot }

func newWalkProbe(p *plan) walkProbe {
	pr := walkProbe{walks: make([]walkSlot, p.slots)}
	for s := range pr.walks {
		pr.walks[s].cells = make([]probeCell, probeCells)
		pr.walks[s].order = p.probe[s]
	}
	return pr
}

func (p *walkProbe) every() int { return inprocEvery }

func (w *walkSlot) next() *probeCell {
	c := &w.cells[w.order[w.pos]]
	if w.pos++; w.pos == len(w.order) {
		w.pos = 0
	}
	return c
}

func (p *walkProbe) probeFast(slot int) {
	c := p.walks[slot].next()
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (p *walkProbe) probeTimed(slot int, st *stamps) {
	c := p.walks[slot].next()
	st.acq0 = now()
	c.mu.Lock()
	st.acq1 = now()
	st.rel0 = st.acq1
	c.n++
	c.mu.Unlock()
	st.rel1 = now()
	st.end = st.rel1
}

// ---- inproc_hot: a ticket lock made of two atomics ----

// ticketPatience bounds a wait for one's turn (≈20 µs of polling) before
// the waiter starts yielding: the holder may have lost its CPU.
const ticketPatience = 20_000

type ticketSlot struct {
	sink uint64
	_    slotPad
}

// ticketProbe: the workload's op — lock, bump a protected counter, spin,
// unlock, spin — on the plainest fair lock sync/atomic can spell: take a
// ticket, wait for the owner word to reach it, pass it on. Every hand-off
// moves the same few cache lines between the two cores that a contended
// GLK lock's does. Measured over eight minutes in 20 s blocks with the
// lock held in ticket mode, the workload's speed spread 9.6 % (quartiles ÷
// median); relative to this probe 2.5 %, to a two-party baton 5.6 %, to a
// contended sync.Mutex 5.9 %.
type ticketProbe struct {
	next    atomic.Uint32
	_       slotPad
	owner   atomic.Uint32
	_       slotPad
	counter uint64 // protected by the ticket
	_       slotPad
	slots   []ticketSlot
}

func newTicketProbe(p *plan) ticketProbe {
	return ticketProbe{slots: make([]ticketSlot, p.slots)}
}

func (p *ticketProbe) every() int { return inprocEvery }

func (p *ticketProbe) lock() uint32 {
	t := p.next.Add(1) - 1
	for i := 0; p.owner.Load() != t; i++ {
		if i > ticketPatience {
			runtime.Gosched()
		}
	}
	return t
}

func (p *ticketProbe) probeFast(slot int) {
	s := &p.slots[slot]
	t := p.lock()
	p.counter++
	s.sink = spin(hotSpin, s.sink)
	p.owner.Store(t + 1)
	s.sink = spin(hotSpin, s.sink)
}

func (p *ticketProbe) probeTimed(slot int, st *stamps) {
	s := &p.slots[slot]
	st.acq0 = now()
	t := p.lock()
	st.acq1 = now()
	p.counter++
	s.sink = spin(hotSpin, s.sink)
	st.rel0 = now()
	p.owner.Store(t + 1)
	st.rel1 = now()
	s.sink = spin(hotSpin, s.sink)
	st.end = now()
}

// ---- inproc_rw: shared sync.RWMutex cells ----

type rwCell struct {
	mu   sync.RWMutex
	a, b uint64
	_    [24]byte
}

type rwProbeSlot struct {
	visits xrand.SplitMix64
	bad    uint64
	_      slotPad
}

// rwProbe: the workload's own sequence — same keys, same reads and writes
// — on shared sync.RWMutex cells, one per key.
type rwProbe struct {
	cells []rwCell
	walks []rwProbeSlot
}

func newRWProbe(p *plan) rwProbe {
	pr := rwProbe{cells: make([]rwCell, len(p.keys)), walks: make([]rwProbeSlot, p.slots)}
	for s := range pr.walks {
		pr.walks[s].visits = xrand.Seeded(p.streams[s])
	}
	return pr
}

func (p *rwProbe) every() int { return inprocEvery }

func (p *rwProbe) probeFast(slot int) {
	w := &p.walks[slot]
	e := rwVisit(&w.visits)
	c := &p.cells[e&^writeBit]
	if e&writeBit != 0 {
		c.mu.Lock()
		c.a++
		c.b++
		c.mu.Unlock()
		return
	}
	c.mu.RLock()
	if c.a != c.b {
		w.bad++
	}
	c.mu.RUnlock()
}

func (p *rwProbe) probeTimed(slot int, st *stamps) {
	st.acq0 = now()
	p.probeFast(slot)
	st.rel1 = now()
	st.acq1, st.rel0, st.end = st.rel1, st.rel1, st.rel1
}
