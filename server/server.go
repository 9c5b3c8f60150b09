// Package server implements glsd, the network-facing GLS lock service: a
// TCP server speaking a memcached-style text protocol over a
// gls.Service, with sessions (lock ownership scoped to a client
// connection's lifetime), lease-based locks (every grant carries a TTL,
// renewable, reaped by an expiry sweeper), monotonic per-key fencing
// tokens on every grant, asynchronous acquisition (a blocked client costs
// one goroutine parked in the key's own FIFO queue, never a connection's
// reader and never a CPU), and batched wire ops that are the single-key op
// once per key, in key order.
//
// Every key is a locks.Mutex — spin briefly, then park, release hands the
// lock to the longest waiter — not the adaptive GLK lock the service gives
// in-process callers: a glsd waiter stands in for a client a network away,
// so no hold it waits out is shorter than two round trips, and a key's lock
// object is freed when idle, before adaptation could learn that.
//
// The paper positions GLS as middleware — a locking service applications
// consume rather than a library they embed; this package is that service's
// deployable form. See DESIGN.md §14 for the wire grammar, the
// session/lease/fencing state machine and the release discipline, package
// client for the Go client, and cmd/glsd for the binary.
package server

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gls"
	"gls/locks"
)

// Options configures a Server. The zero value listens on no address (use
// Serve with your own listener), creates a default service, and
// uses the documented defaults for every limit.
type Options struct {
	// Service configures the underlying gls.Service the server owns. Debug
	// must be false: debug mode attributes ownership to goroutines, and the
	// server acquires on a wait's goroutine and releases on sweeper or
	// reader goroutines by design.
	Service gls.Options

	// DefaultTTL is the lease duration applied when a request carries none
	// (default 10s). MaxTTL caps every requested TTL (default 60s) so a
	// client typo cannot park a key for a week — the lease is the server's
	// only defense against a holder that stops talking.
	DefaultTTL time.Duration
	// MaxTTL caps requested lease durations (default 60s).
	MaxTTL time.Duration

	// DefaultWaitTimeout bounds a wait op that carries no timeout, and every
	// lockmany, whose line has no timeout field (default 60s). With every
	// asynchronous acquisition and every lease bounded, every parked waiter
	// comes back, so QueueDepth's slots cannot leak to a hot key.
	DefaultWaitTimeout time.Duration

	// SweepInterval is the expiry sweeper's cadence. It follows the
	// telemetry Sampler's discipline — default 50ms, minimum 10ms (below
	// that the sweep competes with what it bounds). Session death kicks the
	// sweeper immediately, so disconnect release does not wait a tick.
	SweepInterval time.Duration

	// QueueDepth bounds the outstanding asynchronous acquisitions — wait
	// and lockmany ops admitted and not yet answered — across all sessions
	// (default 1024). Each is one goroutine parked in its key's queue: a
	// few KB of stack and no CPU. Beyond the bound, requests are refused
	// with ERR overload — open-loop honesty instead of unbounded buffering.
	QueueDepth int

	// MaxLineBytes bounds one request line (default 4096). A longer line is
	// answered with ERR toolong and the connection is closed, since the
	// stream can no longer be framed.
	MaxLineBytes int
	// MaxBatchKeys bounds keys per batched op (default MaxBatchKeys = 64);
	// grant responses carry every (key, token) pair on one line.
	MaxBatchKeys int

	// Logf receives server lifecycle and error lines; nil discards them.
	Logf func(format string, args ...any)
}

// withDefaults resolves the documented defaults.
func (o Options) withDefaults() Options {
	if o.DefaultTTL <= 0 {
		o.DefaultTTL = 10 * time.Second
	}
	if o.MaxTTL <= 0 {
		o.MaxTTL = 60 * time.Second
	}
	if o.DefaultWaitTimeout <= 0 {
		o.DefaultWaitTimeout = 60 * time.Second
	}
	if o.SweepInterval <= 0 {
		o.SweepInterval = 50 * time.Millisecond
	}
	if o.SweepInterval < 10*time.Millisecond {
		o.SweepInterval = 10 * time.Millisecond
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = 4096
	}
	if o.MaxBatchKeys <= 0 {
		o.MaxBatchKeys = MaxBatchKeys
	}
	return o
}

// Validate reports configuration errors (New returns them).
func (o Options) Validate() error {
	if o.Service.Debug {
		return errors.New("glsd: Service.Debug is not supported: the server acquires on a wait's goroutine and releases on the sweeper, so goroutine-attributed ownership checks would misfire")
	}
	return nil
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	// Sessions is the number of live sessions (connections).
	Sessions int
	// SessionsTotal counts sessions ever created.
	SessionsTotal uint64
	// Held is the number of currently granted leases.
	Held int64
	// Waiting is the number of outstanding asynchronous acquisitions.
	Waiting int64
	// Leases is the expiry heap's size: one record per held lease.
	Leases int
	// Grants counts leases ever granted (every fencing token minted).
	Grants uint64
	// Releases counts explicit unlocks (single and batched).
	Releases uint64
	// Expiries counts sweeper releases — TTL expiries plus session-death
	// releases, which are clamped leases swept through the same path.
	Expiries uint64
	// Timeouts counts waits that hit their timeout.
	Timeouts uint64
	// Cancels counts waits ended by a cancel op or session death.
	Cancels uint64
	// Disconnects counts sessions that died with leases still held.
	Disconnects uint64
	// Overloads counts waits refused because QueueDepth acquisitions were
	// already outstanding.
	Overloads uint64
}

// Server is one glsd instance. Create with New, serve with Serve or
// ListenAndServe, stop with Close.
type Server struct {
	opts Options
	svc  *gls.Service

	leases   *leaseQueue
	sessions *sessionSet

	lnMu sync.Mutex
	lns  []net.Listener

	connWG  sync.WaitGroup
	waitWG  sync.WaitGroup // one count per asynchronous acquisition's goroutine
	sweepWG sync.WaitGroup

	sweepStop chan struct{}
	closed    atomic.Bool

	sessionsTotal atomic.Uint64
	held          atomic.Int64
	waiting       atomic.Int64
	grants        atomic.Uint64
	releases      atomic.Uint64
	expiries      atomic.Uint64
	timeouts      atomic.Uint64
	cancels       atomic.Uint64
	disconnects   atomic.Uint64
	overloads     atomic.Uint64
}

// New builds a server (its own gls.Service included) and starts the expiry
// sweeper. It does not listen; call Serve or ListenAndServe.
func New(opts Options) (*Server, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	s := &Server{
		opts:      opts,
		svc:       gls.New(opts.Service),
		leases:    newLeaseQueue(),
		sessions:  newSessionSet(),
		sweepStop: make(chan struct{}),
	}
	s.sweepWG.Add(1)
	go s.sweeper()
	return s, nil
}

// Service returns the underlying lock service (telemetry access, tests).
func (s *Server) Service() *gls.Service { return s.svc }

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Sessions:      s.sessions.len(),
		SessionsTotal: s.sessionsTotal.Load(),
		Held:          s.held.Load(),
		Waiting:       s.waiting.Load(),
		Leases:        s.leases.size(),
		Grants:        s.grants.Load(),
		Releases:      s.releases.Load(),
		Expiries:      s.expiries.Load(),
		Timeouts:      s.timeouts.Load(),
		Cancels:       s.cancels.Load(),
		Disconnects:   s.disconnects.Load(),
		Overloads:     s.overloads.Load(),
	}
}

// logf writes one log line through Options.Logf, if set.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// ListenAndServe listens on addr and serves until Close, blocking like
// http.Server.ListenAndServe. Use Listen + Serve to learn the bound
// address first.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := s.Listen(addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Listen opens a TCP listener on addr and registers it for Close.
func (s *Server) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.lnMu.Lock()
	s.lns = append(s.lns, ln)
	s.lnMu.Unlock()
	return ln, nil
}

// Serve accepts connections on ln until the listener is closed (Close
// closes every listener opened through Listen). Each connection runs one
// reader goroutine; every blocking wait runs on a goroutine of its own.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.handleConn(conn)
		}()
	}
}

// Close stops the server: listeners close, live sessions are torn down
// (their leases clamp to now and sweep), the outstanding acquisitions end,
// and the sweeper stops once every held lock is back. Safe to call more than
// once; the underlying service is closed last.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.lnMu.Lock()
	for _, ln := range s.lns {
		_ = ln.Close()
	}
	s.lnMu.Unlock()
	// Closing each session's connection unblocks its reader, whose exit
	// path runs the teardown (clamp leases, cancel waits).
	s.sessions.each(func(ss *session) { _ = ss.conn.Close() })
	s.connWG.Wait()
	// No readers ⇒ no new acquisitions, and the teardowns aborted every
	// parked one — a batch gave back what it had taken — so this waits on no
	// lease.
	s.waitWG.Wait()
	close(s.sweepStop)
	s.sweepWG.Wait()
	s.svc.Close()
}

// handleConn runs one connection: a session, a line scanner, and the
// dispatch loop. The reader goroutine only ever executes non-blocking
// operations; anything that could wait gets its own goroutine.
func (s *Server) handleConn(conn net.Conn) {
	ss := s.sessions.add(s, conn)
	s.sessionsTotal.Add(1)
	defer s.teardown(ss)

	sc := bufio.NewScanner(conn)
	// The scanner's token cap is max(cap(buf), limit), so the initial
	// buffer must not exceed the configured line limit.
	initial := 512
	if initial > s.opts.MaxLineBytes {
		initial = s.opts.MaxLineBytes
	}
	sc.Buffer(make([]byte, 0, initial), s.opts.MaxLineBytes)
	for sc.Scan() {
		// The scanner's own bytes, valid until the next Scan: the parser
		// keeps none of them.
		line := bytes.TrimSuffix(sc.Bytes(), []byte("\r"))
		if len(line) == 0 {
			continue
		}
		cmd, perr := parseCommand(line, s.opts.MaxBatchKeys)
		if perr != nil {
			ss.writeErr(perr)
			continue
		}
		if !s.dispatch(ss, cmd) {
			return
		}
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		ss.writeErr(protoErrf(ErrCodeTooLong, "request line exceeds %d bytes", s.opts.MaxLineBytes))
	}
}

// teardown is session death: every queued wait aborts, every held lease is
// clamped to "now" and left to the sweeper — disconnect release IS lease
// expiry, one code path — and the session leaves the registry.
func (s *Server) teardown(ss *session) {
	now := time.Now()
	ss.mu.Lock()
	ss.dead = true
	for _, w := range ss.waits {
		w.abort()
	}
	hadHeld := len(ss.held) > 0
	for _, g := range ss.held {
		s.leases.schedule(g, now)
	}
	ss.mu.Unlock()
	if hadHeld {
		s.disconnects.Add(1)
	}
	s.leases.wake()
	s.sessions.remove(ss.id)
	_ = ss.conn.Close()
}

// clampTTL resolves a requested TTL against the defaults and the cap.
func (s *Server) clampTTL(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		ttl = s.opts.DefaultTTL
	}
	if ttl > s.opts.MaxTTL {
		ttl = s.opts.MaxTTL
	}
	return ttl
}

// pin pins key's lock object, creating it as the blocking FIFO lock every
// glsd key is (see the package comment).
func (s *Server) pin(key uint64) gls.Pin { return s.svc.PinWith(locks.Mutex, key) }

// pinAll pins every slot's key before the server touches its locks.
func (s *Server) pinAll(slots []slot) {
	for i := range slots {
		slots[i].pin = s.pin(slots[i].key)
	}
}

// unpinAll drops the pins of slots whose locks the server does not hold. The
// Unpin that finds a key unused — no grant, no waiter, no request in flight —
// frees its lock object.
func unpinAll(slots []slot) {
	for _, sl := range slots {
		sl.pin.Unpin()
	}
}

// acquire takes every slot's lock through its pin with lock, in the slots'
// order — key order, whatever the request. It is all or nothing: the first
// lock that reports false makes it release what it had taken, last first,
// and report false. The pins stay the caller's either way.
func acquire(slots []slot, lock func(gls.Pin) bool) bool {
	for i := range slots {
		if !lock(slots[i].pin) {
			for j := i - 1; j >= 0; j-- {
				slots[j].pin.Unlock()
			}
			return false
		}
	}
	return true
}

// grant registers an acquired set with its session, counts it, and puts the
// slots in wire order for the reply. On a session that died under the
// acquisition the locks go straight back and it reports false.
func (s *Server) grant(ss *session, slots []slot, ttl time.Duration) bool {
	if !ss.registerGrants(slots, ttl) {
		for _, sl := range slots {
			sl.pin.Unlock()
			sl.pin.Unpin()
		}
		return false
	}
	s.grants.Add(uint64(len(slots)))
	s.held.Add(int64(len(slots)))
	slices.SortFunc(slots, func(a, b slot) int { return cmp.Compare(a.pos, b.pos) })
	return true
}

// releaseGrant returns g's lock to the service and retires the grant's
// lease record and pin. The caller must have removed g from the session's
// held map (the single-remover rule); the counter it bumps is the caller's.
func (s *Server) releaseGrant(g *grant) {
	g.pin.Unlock() // first: a queued waiter gets the lock before the bookkeeping
	g.pin.Unpin()
	s.leases.remove(g)
	s.held.Add(-1)
}

// dispatch executes one parsed command on the reader goroutine. It returns
// false when the connection should close (quit).
func (s *Server) dispatch(ss *session, cmd Command) bool {
	switch cmd.Op {
	case OpSession:
		ss.begin("SESSION").num(ss.id).end()
	case OpPing:
		ss.begin("PONG").end()
	case OpQuit:
		ss.begin("BYE").end()
		return false
	case OpStats:
		ss.begin(s.statsLine()).end()
	case OpToken:
		ss.begin("TOKEN").key(cmd.Key).num(s.svc.Seq(cmd.Key)).end()
	case OpTryLock, OpTryLockMany:
		s.handleTry(ss, cmd)
	case OpUnlock:
		s.handleUnlock(ss, cmd)
	case OpRenew:
		s.handleRenew(ss, cmd)
	case OpWait, OpLockMany:
		s.handleAsync(ss, cmd)
	case OpCancel:
		s.handleCancel(ss, cmd)
	case OpUnlockMany:
		s.handleUnlockMany(ss, cmd)
	default:
		ss.writeErr(protoErrf(ErrCodeCommand, "unhandled op %v", cmd.Op))
	}
	return true
}

// statsLine renders the stats response: one line of k=v fields.
func (s *Server) statsLine() string {
	st := s.Stats()
	return fmt.Sprintf(
		"STATS sessions=%d held=%d waiting=%d leases=%d grants=%d releases=%d expiries=%d timeouts=%d cancels=%d disconnects=%d overloads=%d",
		st.Sessions, st.Held, st.Waiting, st.Leases, st.Grants, st.Releases,
		st.Expiries, st.Timeouts, st.Cancels, st.Disconnects, st.Overloads)
}

// holdsAny reports (under ss.mu) a key of slots this session already holds.
// Re-acquiring a held key would park the waiter behind its own session
// until the lease expires, so it is refused up front.
func (ss *session) holdsAny(slots []slot) (uint64, bool) {
	for _, sl := range slots {
		if _, ok := ss.held[sl.key]; ok {
			return sl.key, true
		}
	}
	return 0, false
}

// handleTry is the synchronous acquisition, trylock and trylockmany: safe on
// the reader goroutine because TryLock never waits. A batch is all or
// nothing, backing out completely on the first busy key.
func (s *Server) handleTry(ss *session, cmd Command) {
	var one [1]slot
	slots := slotsOf(one[:0], cmd)
	ss.mu.Lock()
	k, held := ss.holdsAny(slots)
	ss.mu.Unlock()
	if held {
		ss.writeErr(protoErrf(ErrCodeHeld, "key %#x already held by this session", k))
		return
	}
	ttl := s.clampTTL(cmd.TTL)
	s.pinAll(slots)
	many := cmd.Op.many()
	switch {
	case !acquire(slots, gls.Pin.TryLock):
		unpinAll(slots)
		if many {
			ss.begin("BUSY many").end()
		} else {
			ss.begin("BUSY").key(cmd.Key).end()
		}
	case !s.grant(ss, slots, ttl):
		// the session died under us (Close racing the reader)
	case many:
		ss.begin("GRANTEDMANY").ms(ttl).grants(slots).end()
	default:
		ss.begin("GRANTED").key(cmd.Key).num(slots[0].token).ms(ttl).end()
	}
}

// handleUnlock releases a held lease.
func (s *Server) handleUnlock(ss *session, cmd Command) {
	g, ok := ss.takeGrant(cmd.Key)
	if !ok {
		ss.writeErr(protoErrf(ErrCodeNotHeld, "key %#x is not held by this session", cmd.Key))
		return
	}
	s.releaseGrant(g)
	s.releases.Add(1)
	ss.begin("RELEASED").key(cmd.Key).end()
}

// handleRenew extends a held lease. The expiry time is authoritative: a
// renew that arrives past it fails with ERR expired and releases the lease
// right there, without waiting for the sweeper — so "my lease lapsed" is
// reported by the earliest of the two observers, deterministically.
func (s *Server) handleRenew(ss *session, cmd Command) {
	now := time.Now()
	ttl := s.clampTTL(cmd.TTL)
	ss.mu.Lock()
	g, ok := ss.held[cmd.Key]
	if !ok {
		ss.mu.Unlock()
		ss.writeErr(protoErrf(ErrCodeNotHeld, "key %#x is not held by this session", cmd.Key))
		return
	}
	if !now.Before(g.expiry) {
		delete(ss.held, cmd.Key)
		ss.mu.Unlock()
		s.releaseGrant(g)
		s.expiries.Add(1)
		ss.writeErr(protoErrf(ErrCodeExpired, "lease on %#x expired %v ago", cmd.Key, now.Sub(g.expiry).Round(time.Millisecond)))
		return
	}
	g.ttl = ttl
	s.leases.schedule(g, now.Add(ttl))
	tok := g.token
	ss.mu.Unlock()
	ss.begin("RENEWED").key(cmd.Key).num(tok).ms(ttl).end()
}

// handleCancel aborts an outstanding wait. Always acknowledged, and before
// the abort fires, so the acknowledgement precedes the CANCELLED it causes:
// the race between a cancel and a grant is real, and its outcome arrives as
// the wait's own terminal line (GRANT if the grant won, CANCELLED otherwise).
func (s *Server) handleCancel(ss *session, cmd Command) {
	ss.begin("OK cancel").num(cmd.ID).end()
	ss.mu.Lock()
	if w := ss.waits[cmd.ID]; w != nil {
		w.abort()
	}
	ss.mu.Unlock()
}

// handleAsync admits a wait or lockmany: count it against QueueDepth,
// register the wait, pin its keys, acknowledge with QUEUED and only then
// start the goroutine that acquires — so GRANT follows QUEUED on the wire by
// program order. From there the waiter is parked in the lock's own FIFO
// queue; nothing else stands in for it.
func (s *Server) handleAsync(ss *session, cmd Command) {
	timeout := cmd.Timeout // a lockmany carries none
	if timeout <= 0 {
		timeout = s.opts.DefaultWaitTimeout
	}
	done := make(chan struct{})
	w := &wait{
		id:    cmd.ID,
		many:  cmd.Op.many(),
		ttl:   s.clampTTL(cmd.TTL),
		bound: locks.Cancel{Done: done, Deadline: time.Now().Add(timeout)},
		done:  done,
	}
	w.slots = slotsOf(w.one[:0], cmd)

	ss.mu.Lock()
	if ss.dead {
		ss.mu.Unlock()
		return
	}
	if _, dup := ss.waits[cmd.ID]; dup {
		ss.mu.Unlock()
		ss.writeErr(protoErrf(ErrCodeDupID, "wait id %d already outstanding", cmd.ID))
		return
	}
	if k, held := ss.holdsAny(w.slots); held {
		ss.mu.Unlock()
		ss.writeErr(protoErrf(ErrCodeHeld, "key %#x already held by this session", k))
		return
	}
	if s.waiting.Add(1) > int64(s.opts.QueueDepth) {
		s.waiting.Add(-1)
		ss.mu.Unlock()
		s.overloads.Add(1)
		ss.writeErr(protoErrf(ErrCodeOverload, "acquisition queue full (%d pending)", s.opts.QueueDepth))
		return
	}
	ss.waits[cmd.ID] = w
	ss.mu.Unlock()

	s.pinAll(w.slots)
	ss.begin("QUEUED").num(cmd.ID).end()
	s.waitWG.Add(1)
	go s.runWait(ss, w)
}

// handleUnlockMany releases a batch of held leases. Keys not held by this
// session — a key's second appearance on the line included — are skipped and
// left out of the count: a batch release after a partial expiry should
// release what remains, not fail entirely.
func (s *Server) handleUnlockMany(ss *session, cmd Command) {
	released := 0
	for _, k := range cmd.Keys {
		if g, ok := ss.takeGrant(k); ok {
			s.releaseGrant(g)
			s.releases.Add(1)
			released++
		}
	}
	ss.begin("RELEASEDMANY").num(uint64(released)).end()
}

// runWait executes one asynchronous acquisition, wait or lockmany, on its
// own goroutine: for each key in key order, the pin's LockCancel spins a few
// tries and then parks in the key's FIFO queue until the releaser hands it
// the lock or the wait's one Cancel fires — the timeout, a cancel op, the
// session's death. An abandoned wait unlinks itself from the queue it is
// parked in (locks.Cancel protocol) instead of occupying a slot until its
// turn, and gives back the locks it had already taken: it holds nothing.
// The QueueDepth slot comes back before the terminal line goes out, so a
// client that has read the line can count on the slot.
func (s *Server) runWait(ss *session, w *wait) {
	defer s.waitWG.Done()
	locked := acquire(w.slots, func(p gls.Pin) bool { return p.LockCancel(&w.bound) })
	ss.mu.Lock()
	delete(ss.waits, w.id)
	ss.mu.Unlock()
	s.waiting.Add(-1)
	switch {
	case !locked && w.bound.TimedOut():
		unpinAll(w.slots)
		s.timeouts.Add(1)
		ss.begin("TIMEOUT").num(w.id).end()
	case !locked:
		unpinAll(w.slots)
		s.cancels.Add(1)
		ss.begin("CANCELLED").num(w.id).end()
	case !s.grant(ss, w.slots, w.ttl):
		// Granted after the session died: the grant beat the teardown's
		// abort, and went straight back.
		s.cancels.Add(1)
	case w.many:
		ss.begin("GRANTMANY").num(w.id).ms(w.ttl).grants(w.slots).end()
	default:
		sl := w.slots[0]
		ss.begin("GRANT").num(w.id).key(sl.key).num(sl.token).ms(w.ttl).end()
	}
}

// sweeper is the lease-expiry loop: a ticker at Options.SweepInterval plus
// immediate kicks from session teardown. Each pass drains the due grants
// and revalidates every one against the owning session before releasing —
// an unlock or renew may have won the race since the pop.
func (s *Server) sweeper() {
	defer s.sweepWG.Done()
	t := time.NewTicker(s.opts.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.sweepStop:
			// Final pass: Close clamped every remaining lease before
			// stopping the sweeper, so this drain returns the stragglers.
			s.sweepDue(time.Now())
			return
		case <-t.C:
		case <-s.leases.kick:
		}
		s.sweepDue(time.Now())
	}
}

// sweepDue releases every lease that is really expired as of now.
func (s *Server) sweepDue(now time.Time) {
	for _, g := range s.leases.due(now) {
		s.expire(g, now)
	}
}

// expire revalidates one due grant and, if it is still registered and
// really past its expiry, releases it: the single-remover delete under the
// session mutex, then the unlock and unpin (which may free an idle key),
// and the EXPIRED notice to a still-living client.
func (s *Server) expire(g *grant, now time.Time) {
	ss := g.sess
	ss.mu.Lock()
	if ss.held[g.key] != g || g.expiry.After(now) {
		ss.mu.Unlock()
		return // already released, or renewed (and rescheduled) since the pop
	}
	delete(ss.held, g.key)
	wasDead := ss.dead
	ss.mu.Unlock()
	s.releaseGrant(g)
	s.expiries.Add(1)
	if !wasDead {
		ss.begin("EXPIRED").key(g.key).num(g.token).end()
	}
}
