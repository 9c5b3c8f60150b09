package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"gls"
	"gls/client"
	"gls/internal/xrand"
	"gls/server"
)

var epoch = time.Now()

// now is the benchmark's one clock: monotonic ns since process start.
func now() int64 { return int64(time.Since(epoch)) }

// stamps are the clock readings one stamped op takes at the locking API's
// boundaries: every op on the wire and in a traced cycle. The same five
// readings are the op's latency sample and, in a traced cycle, its spans.
type stamps struct {
	acq0, acq1 int64 // acquire call → return
	rel0, rel1 int64 // release call → return
	end        int64 // op end (after think time, where there is any)
	kind       uint8 // selects the span names (inproc_rw: 0 read, 1 write)
}

// lat is the time inside the locking API: the critical section and think
// time are excluded.
func (s *stamps) lat() int64 { return s.acq1 - s.acq0 + s.rel1 - s.rel0 }

// instance is one built workload: the program under test plus its speed
// probe (probe.go, echo.go), which the same driver loop runs between
// workload phases.
type instance interface {
	every() int                 // ops per latency sample taken: 1 on the wire (each op stamped), 64 in-process (the last inprocBurst timed as one)
	fast(slot int)              // one op
	timed(slot int, st *stamps) // one op, stamped
	probeFast(slot int)
	probeTimed(slot int, st *stamps)
	ops() (attempted, failed uint64) // since build, warm-up included
	check() []string                 // correctness failures; call once, after the last op
	layer(m map[string]float64)      // exact counts read at the layer boundaries
	spanNames(kind uint8) [4]string  // acquire, critical section, release, think
	close()
}

const (
	inprocEvery  = 64
	inprocBurst  = 16 // of every 64 ops the last 16 are timed, as one
	inprocWarmup = 200_000
	wireWarmup   = 20_000
	hotSpin      = 50 // ≈100 ns of dependent multiplies on the reference box
	wireTTL      = 10 * time.Second
	wireTimeout  = 5 * time.Second
)

// build is one set-up: the service or server, every key initialised, every
// session dialled, and the fixed-count warm-up (cfg.warmup overrides the
// count; the tests shorten it).
func build(p *plan, cfg config) (instance, error) {
	warmup := inprocWarmup
	if p.wire() {
		warmup = wireWarmup
	}
	if cfg.warmup > 0 {
		warmup = cfg.warmup
	}
	var in instance
	var err error
	switch p.workload {
	case wlSpread:
		in = buildSpread(p)
	case wlHot:
		in = buildHot(p, cfg.breakCS)
	case wlRW:
		in = buildRW(p)
	case wlWire:
		in, err = buildWire(p)
	case wlHandoff:
		in, err = buildHandoff(p)
	default:
		err = fmt.Errorf("unknown workload %q", p.workload)
	}
	if err != nil {
		return nil, err
	}
	warm(in, p.slots, warmup)
	return in, nil
}

// warm runs total ops split evenly over the slots, one slot after another,
// through the same op the measured phases use. Not concurrently: what a
// contended op costs depends on the mode the adaptive locks are in, which
// follows the process-wide multiprogramming monitor's history, and set-up
// repeated in one process then measured that history (inproc_rw: 13 or
// 19 ms) where a fresh process has none. The first cycles warm whatever
// contention warms; the median over cycles does not see them.
func warm(in instance, slots, total int) {
	for s := 0; s < slots; s++ {
		for i := 0; i < total/slots; i++ {
			in.fast(s)
		}
	}
}

// spin is the critical-section and think-time filler: n dependent
// multiplies, so it scales with the machine the way the probe does.
func spin(n int, x uint64) uint64 {
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// slotPad follows every per-slot struct: two slots' hot words are then at
// least 128 B apart, clear of each other's line and of the adjacent-line
// prefetcher's pair.
type slotPad [128]byte

// spacedHandle returns a fresh handle with three more allocated behind it
// (kept alive in *spacers). A Handle is an 80-byte heap object that is
// written on every op; two allocated back to back share a cache line and
// each op then costs twice as much (118 against 55 ns in a probe). A
// program that creates one per goroutine, as the Handle doc asks, does
// not lay them out that way, so neither does the benchmark.
func spacedHandle(svc *gls.Service, spacers *[]*gls.Handle) *gls.Handle {
	h := svc.NewHandle()
	for i := 0; i < 3; i++ {
		*spacers = append(*spacers, svc.NewHandle())
	}
	return h
}

func shardSkew(svc *gls.Service) float64 {
	var total, most uint64
	stats := svc.ShardStats()
	for _, sh := range stats {
		total += sh.Creates
		most = max(most, sh.Creates)
	}
	if total == 0 {
		return 0
	}
	return float64(most) * float64(len(stats)) / float64(total)
}

// ---- inproc_spread ----

type spreadSlot struct {
	h    *gls.Handle
	keys []uint64 // own keys in visiting order
	ctr  []uint64 // bumped inside the critical section, one per position
	pos  int
	n    uint64
	_    slotPad
}

type spread struct {
	walkProbe
	svc     *gls.Service
	slots   []spreadSlot
	spacers []*gls.Handle
}

func buildSpread(p *plan) *spread {
	w := &spread{walkProbe: newWalkProbe(p), svc: gls.New(gls.Options{}), slots: make([]spreadSlot, p.slots)}
	for _, k := range p.keys {
		w.svc.InitLock(k)
	}
	for s := range w.slots {
		sl := &w.slots[s]
		sl.h = spacedHandle(w.svc, &w.spacers)
		sl.ctr = make([]uint64, len(p.seqs[s]))
		for _, idx := range p.seqs[s] {
			sl.keys = append(sl.keys, p.keys[idx])
		}
	}
	return w
}

func (w *spread) fast(slot int) {
	s := &w.slots[slot]
	k := s.keys[s.pos]
	s.h.Lock(k)
	s.ctr[s.pos]++
	s.h.Unlock(k)
	if s.pos++; s.pos == len(s.keys) {
		s.pos = 0
	}
	s.n++
}

func (w *spread) timed(slot int, st *stamps) {
	s := &w.slots[slot]
	k := s.keys[s.pos]
	st.acq0 = now()
	s.h.Lock(k)
	st.acq1 = now()
	st.rel0 = st.acq1
	s.ctr[s.pos]++
	s.h.Unlock(k)
	st.rel1 = now()
	st.end = st.rel1
	if s.pos++; s.pos == len(s.keys) {
		s.pos = 0
	}
	s.n++
}

func (w *spread) ops() (attempted, failed uint64) {
	for i := range w.slots {
		attempted += w.slots[i].n
	}
	return attempted, 0
}

// visits is how often position pos of a cyclic walk of length l is reached
// in n steps.
func visits(n uint64, l, pos int) uint64 {
	v := n / uint64(l)
	if uint64(pos) < n%uint64(l) {
		v++
	}
	return v
}

func (w *spread) check() []string {
	var errs []string
	for si := range w.slots {
		s := &w.slots[si]
		for pos, got := range s.ctr {
			if want := visits(s.n, len(s.keys), pos); got != want && len(errs) < 5 {
				errs = append(errs, fmt.Sprintf("slot %d key %#x: counter %d, ops %d", si, s.keys[pos], got, want))
			}
		}
	}
	return errs
}

func (w *spread) layer(m map[string]float64) {
	var misses, n, trans uint64
	for i := range w.slots {
		misses += w.slots[i].h.CacheMisses()
		n += w.slots[i].n
		for _, k := range w.slots[i].keys {
			if st, ok := w.svc.GLKStats(k); ok {
				trans += st.Transitions
			}
		}
	}
	m["gls.handle_miss_share"] = float64(misses) / float64(2*n)
	m["gls.locks_live"] = float64(w.svc.Locks())
	m["gls.shard_max_over_mean"] = shardSkew(w.svc)
	m["glk.transitions"] = float64(trans)
}

func (w *spread) spanNames(uint8) [4]string {
	return [4]string{"gls.Handle.Lock", "", "gls.Handle.Unlock", ""}
}

func (w *spread) close() { w.svc.Close() }

// ---- inproc_hot ----

type hotSlot struct {
	n       uint64
	sink    uint64
	handoff *hist
	_       slotPad
}

type hot struct {
	ticketProbe
	svc    *gls.Service
	key    uint64
	broken bool // self-test: the counter is bumped outside the lock
	slots  []hotSlot
	_      slotPad
	// Protected by key's lock.
	counter uint64
	stampT  int64 // when the holder last called Unlock (0: it did not say)
	stampW  int   // who it was
	_       slotPad
}

func buildHot(p *plan, breakCS bool) *hot {
	w := &hot{ticketProbe: newTicketProbe(p), svc: gls.New(gls.Options{}), key: p.keys[0], broken: breakCS, slots: make([]hotSlot, p.slots)}
	for i := range w.slots {
		w.slots[i].handoff = newHist()
	}
	w.svc.InitLock(w.key)
	return w
}

// bumpBroken is the deliberately wrong critical section: the counter's
// read and write straddle the locked region instead of sitting inside it,
// so concurrent ops lose updates. Atomics keep it a logic bug, not a data
// race.
func (w *hot) bumpBroken(s *hotSlot) {
	v := atomic.LoadUint64(&w.counter)
	w.svc.Lock(w.key)
	s.sink = spin(hotSpin, s.sink)
	w.svc.Unlock(w.key)
	atomic.StoreUint64(&w.counter, v+1)
}

func (w *hot) fast(slot int) {
	s := &w.slots[slot]
	if w.broken {
		w.bumpBroken(s)
	} else {
		w.svc.Lock(w.key)
		w.counter++
		w.stampT = 0
		s.sink = spin(hotSpin, s.sink)
		w.svc.Unlock(w.key)
	}
	s.sink = spin(hotSpin, s.sink)
	s.n++
}

func (w *hot) timed(slot int, st *stamps) {
	s := &w.slots[slot]
	if w.broken {
		st.acq0 = now()
		w.bumpBroken(s)
		st.acq1, st.rel0, st.rel1 = st.acq0, st.acq0, now()
	} else {
		st.acq0 = now()
		w.svc.Lock(w.key)
		st.acq1 = now()
		if w.stampT != 0 && w.stampW != slot {
			s.handoff.add(st.acq1 - w.stampT)
		}
		w.counter++
		s.sink = spin(hotSpin, s.sink)
		st.rel0 = now()
		w.stampT, w.stampW = st.rel0, slot
		w.svc.Unlock(w.key)
		st.rel1 = now()
	}
	s.sink = spin(hotSpin, s.sink)
	st.end = now()
	s.n++
}

func (w *hot) ops() (attempted, failed uint64) {
	for i := range w.slots {
		attempted += w.slots[i].n
	}
	return attempted, 0
}

func (w *hot) check() []string {
	n, _ := w.ops()
	if got := atomic.LoadUint64(&w.counter); got != n {
		return []string{fmt.Sprintf("key %#x: counter %d, ops %d", w.key, got, n)}
	}
	return nil
}

func (w *hot) layer(m map[string]float64) {
	h := newHist()
	for i := range w.slots {
		h.merge(w.slots[i].handoff)
	}
	m["glk.handoff_ns"] = h.quantile(0.5)
	if st, ok := w.svc.GLKStats(w.key); ok {
		m["glk.transitions"] = float64(st.Transitions)
	}
	m["gls.locks_live"] = float64(w.svc.Locks())
	m["gls.shard_max_over_mean"] = shardSkew(w.svc)
}

func (w *hot) spanNames(uint8) [4]string {
	return [4]string{"gls.Service.Lock", "cs", "gls.Service.Unlock", "think"}
}

func (w *hot) close() { w.svc.Close() }

// ---- inproc_rw ----

type rwPair struct {
	a, b uint64 // equal whenever no writer is inside
	_    [48]byte
}

type rwSlot struct {
	h      *gls.Handle
	visits xrand.SplitMix64
	n      uint64
	writes [rwKeys]uint64 // done by this slot, per key
	torn   uint64
	_      slotPad
}

type rw struct {
	rwProbe
	svc     *gls.Service
	keys    []uint64
	pairs   []rwPair
	slots   []rwSlot
	spacers []*gls.Handle
}

func buildRW(p *plan) *rw {
	w := &rw{rwProbe: newRWProbe(p), svc: gls.New(gls.Options{}), keys: p.keys, pairs: make([]rwPair, len(p.keys)), slots: make([]rwSlot, p.slots)}
	for _, k := range p.keys {
		w.svc.InitRWLock(k)
	}
	for s := range w.slots {
		w.slots[s].h = spacedHandle(w.svc, &w.spacers)
		w.slots[s].visits = xrand.Seeded(p.streams[s])
	}
	return w
}

// step draws the slot's next visit.
func (s *rwSlot) step() (idx uint32, write bool) {
	e := rwVisit(&s.visits)
	s.n++
	if e&writeBit != 0 {
		s.writes[e&^writeBit]++
		return e &^ writeBit, true
	}
	return e, false
}

func (w *rw) fast(slot int) {
	s := &w.slots[slot]
	idx, write := s.step()
	k, p := w.keys[idx], &w.pairs[idx]
	if write {
		s.h.Lock(k)
		p.a++
		p.b++
		s.h.Unlock(k)
		return
	}
	s.h.RLock(k)
	if p.a != p.b {
		s.torn++
	}
	s.h.RUnlock(k)
}

func (w *rw) timed(slot int, st *stamps) {
	s := &w.slots[slot]
	idx, write := s.step()
	k, p := w.keys[idx], &w.pairs[idx]
	if write {
		st.kind = 1
		st.acq0 = now()
		s.h.Lock(k)
		st.acq1 = now()
		p.a++
		p.b++
		s.h.Unlock(k)
	} else {
		st.kind = 0
		st.acq0 = now()
		s.h.RLock(k)
		st.acq1 = now()
		if p.a != p.b {
			s.torn++
		}
		s.h.RUnlock(k)
	}
	st.rel1 = now()
	st.rel0, st.end = st.acq1, st.rel1
}

func (w *rw) ops() (attempted, failed uint64) {
	for i := range w.slots {
		attempted += w.slots[i].n
		failed += w.slots[i].torn
	}
	return attempted, failed
}

func (w *rw) check() []string {
	var errs []string
	want := make([]uint64, len(w.keys))
	for si := range w.slots {
		s := &w.slots[si]
		for k, n := range s.writes {
			want[k] += n
		}
		if s.torn != 0 {
			errs = append(errs, fmt.Sprintf("slot %d: %d readers saw a torn pair", si, s.torn))
		}
	}
	for i, p := range w.pairs {
		if p.a != want[i] || p.b != want[i] {
			errs = append(errs, fmt.Sprintf("key %#x: pair (%d,%d), writes %d", w.keys[i], p.a, p.b, want[i]))
		}
	}
	return errs
}

func (w *rw) layer(m map[string]float64) {
	var misses, n, trans uint64
	for i := range w.slots {
		misses += w.slots[i].h.CacheMisses()
		n += w.slots[i].n
	}
	for _, k := range w.keys {
		if st, ok := w.svc.GLKRWStats(k); ok {
			trans += st.Transitions
		}
	}
	m["gls.handle_miss_share"] = float64(misses) / float64(2*n)
	m["gls.locks_live"] = float64(w.svc.Locks())
	m["gls.shard_max_over_mean"] = shardSkew(w.svc)
	m["glk.transitions"] = float64(trans)
}

func (w *rw) spanNames(kind uint8) [4]string {
	if kind == 1 {
		return [4]string{"gls.Handle.Lock", "", "gls.Handle.Unlock", ""}
	}
	return [4]string{"gls.Handle.RLock", "", "gls.Handle.RUnlock", ""}
}

func (w *rw) close() { w.svc.Close() }

// ---- wire: shared server, sessions and echo probe ----

type wireBase struct {
	srv   *server.Server
	conns []*client.Conn
	echo  *echoServer
	ec    []*echoConn // one per connection; its slots share it like they share the client.Conn
	base  server.Stats
	// slotsPerConn maps a slot to its connection and echo twin.
	slotsPerConn int
	probeFailed  atomic.Uint64
	// waitingMax is the largest Stats().Waiting seen at a phase edge.
	waitingMax atomic.Int64
}

var probeLine = []byte("trylock 0x1000 10000\r\n") // the size of a real request line

func (b *wireBase) open(conns, slotsPerConn int) error {
	b.slotsPerConn = slotsPerConn
	srv, err := server.New(server.Options{})
	if err != nil {
		return err
	}
	b.srv = srv
	b.base = srv.Stats()
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	go func() { _ = srv.Serve(ln) }() // returns when Close closes ln
	if b.echo, err = newEchoServer(); err != nil {
		b.close()
		return err
	}
	for i := 0; i < conns; i++ {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			b.close()
			return err
		}
		b.conns = append(b.conns, c)
		e, err := b.echo.dial()
		if err != nil {
			b.close()
			return err
		}
		b.ec = append(b.ec, e)
	}
	return nil
}

func (b *wireBase) close() {
	for _, c := range b.conns {
		_ = c.Close()
	}
	for _, e := range b.ec {
		_ = e.c.Close()
	}
	if b.echo != nil {
		b.echo.close()
	}
	b.srv.Close()
}

func (b *wireBase) every() int { return 1 }

// The wire probe: one line out, one line in, on the slot's connection's
// echo twin.
func (b *wireBase) probeTimed(slot int, st *stamps) {
	st.acq0 = now()
	err := b.ec[slot/b.slotsPerConn].roundTrip(probeLine)
	st.acq1 = now()
	st.rel0, st.rel1, st.end = st.acq1, st.acq1, st.acq1
	if err != nil {
		b.probeFailed.Add(1)
	}
}

func (b *wireBase) probeFast(slot int) {
	var st stamps
	b.probeTimed(slot, &st)
}

// checkServer holds the server to its books: nothing held or waiting, one
// grant and one release per op issued, and no lease ever ran out.
func (b *wireBase) checkServer(issued uint64) []string {
	var st server.Stats
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		// A pool worker drops Waiting just after it writes the GRANT.
		if st = b.srv.Stats(); st.Waiting == 0 || time.Now().After(deadline) {
			break
		}
	}
	var errs []string
	bad := func(name string, got, want uint64) {
		if got != want {
			errs = append(errs, fmt.Sprintf("server %s = %d, want %d", name, got, want))
		}
	}
	bad("held", uint64(st.Held), 0)
	bad("waiting", uint64(st.Waiting), 0)
	bad("grants", st.Grants-b.base.Grants, issued)
	bad("releases", st.Releases-b.base.Releases, issued)
	bad("expiries", st.Expiries-b.base.Expiries, 0)
	bad("timeouts", st.Timeouts-b.base.Timeouts, 0)
	bad("overloads", st.Overloads-b.base.Overloads, 0)
	return errs
}

func (b *wireBase) serverLayer(m map[string]float64) {
	st := b.srv.Stats()
	m["server.grants"] = float64(st.Grants - b.base.Grants)
	m["server.releases"] = float64(st.Releases - b.base.Releases)
	m["server.expiries"] = float64(st.Expiries - b.base.Expiries)
	m["server.timeouts"] = float64(st.Timeouts - b.base.Timeouts)
	m["server.overloads"] = float64(st.Overloads - b.base.Overloads)
	m["server.leases_end"] = float64(st.Leases)
	m["server.waiting_max"] = float64(b.waitingMax.Load())
	m["gls.locks_live"] = float64(b.srv.Service().Locks())
	m["gls.shard_max_over_mean"] = shardSkew(b.srv.Service())
}

// edge is called by slot 0 at every phase edge.
func (b *wireBase) edge() {
	if w := b.srv.Stats().Waiting; w > b.waitingMax.Load() {
		b.waitingMax.Store(w)
	}
}

// ---- wire_spread ----

type wireSlot struct {
	c      *client.Conn
	keys   []uint64
	last   []uint64 // last fencing token seen per position
	pos    int
	n      uint64
	failed uint64
	_      slotPad
}

type wireSpread struct {
	wireBase
	slots []wireSlot
}

func buildWire(p *plan) (*wireSpread, error) {
	w := &wireSpread{slots: make([]wireSlot, p.slots)}
	if err := w.open(p.workers, wireSlotsPerConn); err != nil {
		return nil, err
	}
	for s := range w.slots {
		sl := &w.slots[s]
		sl.c = w.conns[s/wireSlotsPerConn]
		sl.last = make([]uint64, len(p.seqs[s]))
		for _, idx := range p.seqs[s] {
			sl.keys = append(sl.keys, p.keys[idx])
		}
	}
	return w, nil
}

func (w *wireSpread) fast(slot int) {
	var st stamps
	w.timed(slot, &st)
}

func (w *wireSpread) timed(slot int, st *stamps) {
	s := &w.slots[slot]
	k := s.keys[s.pos]
	st.acq0 = now()
	tok, err := s.c.TryLock(k, wireTTL)
	st.acq1 = now()
	st.rel0 = st.acq1
	ok := err == nil && tok > s.last[s.pos]
	if err == nil {
		s.last[s.pos] = tok
		ok = s.c.Unlock(k) == nil && ok
	}
	st.rel1 = now()
	st.end = st.rel1
	if !ok {
		s.failed++
	}
	if s.pos++; s.pos == len(s.keys) {
		s.pos = 0
	}
	s.n++
}

func (w *wireSpread) ops() (attempted, failed uint64) {
	for i := range w.slots {
		attempted += w.slots[i].n
		failed += w.slots[i].failed
	}
	return attempted, failed + w.probeFailed.Load()
}

func (w *wireSpread) check() []string {
	n, _ := w.ops()
	return w.checkServer(n)
}

func (w *wireSpread) layer(m map[string]float64) { w.serverLayer(m) }

func (w *wireSpread) spanNames(uint8) [4]string {
	return [4]string{"client.Conn.TryLock", "", "client.Conn.Unlock", ""}
}

// ---- wire_handoff ----

type handoffSlot struct {
	c        *client.Conn
	n        uint64
	failed   uint64
	waited   uint64 // Lock calls whose grant waited for the other session's release
	lockWait *hist  // their call → return
	handoff  *hist  // holder's Unlock call → waiter's Lock return
	_        slotPad
}

type wireHandoff struct {
	wireBase
	key   uint64
	slots []handoffSlot
	// Bench-side view of the one lock, for the checks and the handoff clock.
	lastTok     atomic.Uint64
	unlockStart atomic.Int64
}

func buildHandoff(p *plan) (*wireHandoff, error) {
	w := &wireHandoff{key: p.keys[0], slots: make([]handoffSlot, p.slots)}
	if err := w.open(p.workers, 1); err != nil {
		return nil, err
	}
	for s := range w.slots {
		w.slots[s] = handoffSlot{c: w.conns[s], lockWait: newHist(), handoff: newHist()}
	}
	return w, nil
}

func (w *wireHandoff) fast(slot int) {
	var st stamps
	w.timed(slot, &st)
}

func (w *wireHandoff) timed(slot int, st *stamps) {
	s := &w.slots[slot]
	s.n++
	st.acq0 = now()
	tok, err := s.c.Lock(context.Background(), w.key, wireTTL, wireTimeout)
	st.acq1 = now()
	if err != nil {
		st.rel0, st.rel1, st.end = st.acq1, st.acq1, st.acq1
		s.failed++
		return
	}
	// The other session called Unlock after this Lock was called: the
	// grant had to wait for that release. (This slot's own last Unlock
	// precedes acq0, and there are two slots.)
	if us := w.unlockStart.Load(); us > st.acq0 {
		s.waited++
		s.lockWait.add(st.acq1 - st.acq0)
		s.handoff.add(st.acq1 - us)
	}
	ok := tok > w.lastTok.Swap(tok)
	// Hold across one round trip: the newest token must be ours.
	cur, err := s.c.Token(w.key)
	ok = ok && err == nil && cur == tok
	st.rel0 = now()
	w.unlockStart.Store(st.rel0)
	ok = s.c.Unlock(w.key) == nil && ok
	st.rel1 = now()
	st.end = st.rel1
	if !ok {
		s.failed++
	}
}

func (w *wireHandoff) ops() (attempted, failed uint64) {
	for i := range w.slots {
		attempted += w.slots[i].n
		failed += w.slots[i].failed
	}
	return attempted, failed + w.probeFailed.Load()
}

func (w *wireHandoff) check() []string {
	n, _ := w.ops()
	return w.checkServer(n)
}

func (w *wireHandoff) layer(m map[string]float64) {
	w.serverLayer(m)
	var n, waited uint64
	wait, hand := newHist(), newHist()
	for i := range w.slots {
		n += w.slots[i].n
		waited += w.slots[i].waited
		wait.merge(w.slots[i].lockWait)
		hand.merge(w.slots[i].handoff)
	}
	m["client.wait_share"] = float64(waited) / float64(n)
	m["client.lock_wait_us"] = wait.quantile(0.5) / 1e3
	m["client.handoff_us"] = hand.quantile(0.5) / 1e3
}

func (w *wireHandoff) spanNames(uint8) [4]string {
	return [4]string{"client.Conn.Lock", "client.Conn.Token", "client.Conn.Unlock", ""}
}
