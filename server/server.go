// Package server implements glsd, the network-facing GLS lock service: a
// TCP server speaking a memcached-style text protocol over a
// gls.Service, with sessions (lock ownership scoped to a client
// connection's lifetime), lease-based locks (every grant carries a TTL,
// renewable, reaped by an expiry sweeper), monotonic per-key fencing
// tokens on every grant, and asynchronous acquisition (a blocked client
// costs one goroutine parked in the key's own FIFO queue, never a
// connection's reader and never a CPU). Every request names at most one key;
// a client that needs several takes them one at a time, in key order.
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
	"errors"
	"fmt"
	"net"
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

	// SweepInterval is the expiry sweeper's cadence: default 50ms, minimum
	// 10ms (below that the sweep competes with what it bounds). Session
	// death kicks the sweeper immediately, so disconnect release does not
	// wait a tick.
	SweepInterval time.Duration

	// QueueDepth bounds the outstanding asynchronous acquisitions — wait
	// ops admitted and not yet answered — across all sessions
	// (default 1024). Each is one goroutine parked in its key's queue: a
	// few KB of stack and no CPU. Beyond the bound, requests are refused
	// with ERR overload — open-loop honesty instead of unbounded buffering.
	QueueDepth int
}

// maxLineBytes bounds one request line. A longer line is answered with ERR
// toolong and the connection is closed, since the stream can no longer be
// framed.
const maxLineBytes = 4096

// defaultWaitTimeout bounds a wait op that carries no timeout. With every
// asynchronous acquisition and every lease bounded, every parked waiter
// comes back, so QueueDepth's slots cannot leak to a hot key. A variable
// only so tests can shorten it.
var defaultWaitTimeout = 60 * time.Second

// withDefaults resolves the documented defaults.
func (o Options) withDefaults() Options {
	if o.DefaultTTL <= 0 {
		o.DefaultTTL = 10 * time.Second
	}
	if o.MaxTTL <= 0 {
		o.MaxTTL = 60 * time.Second
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
	// Releases counts explicit unlocks.
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

// Server is one glsd instance. Create with New, serve with Listen and
// Serve, stop with Close.
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
// sweeper. It does not listen; call Listen and Serve.
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
	// parked one, so this waits on no lease.
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
	sc.Buffer(make([]byte, 0, 512), maxLineBytes)
	for sc.Scan() {
		// The scanner's own bytes, valid until the next Scan: the parser
		// keeps none of them.
		line := bytes.TrimSuffix(sc.Bytes(), []byte("\r"))
		if len(line) == 0 {
			continue
		}
		cmd, perr := parseCommand(line)
		if perr != nil {
			ss.writeErr(perr)
			continue
		}
		if !s.dispatch(ss, cmd) {
			return
		}
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		ss.writeErr(protoErrf(ErrCodeTooLong, "request line exceeds %d bytes", maxLineBytes))
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

// grant registers a lock the server has just taken through pin with its
// session, counts it, and returns its fencing token. On a session that died
// under the acquisition the lock goes straight back — the Unpin that finds
// the key unused frees its lock object — and it reports false.
func (s *Server) grant(ss *session, key uint64, pin gls.Pin, ttl time.Duration) (uint64, bool) {
	token, ok := ss.registerGrant(key, pin, ttl)
	if !ok {
		pin.Unlock()
		pin.Unpin()
		return 0, false
	}
	s.grants.Add(1)
	s.held.Add(1)
	return token, true
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
	case OpTryLock:
		s.handleTry(ss, cmd)
	case OpUnlock:
		s.handleUnlock(ss, cmd)
	case OpRenew:
		s.handleRenew(ss, cmd)
	case OpWait:
		s.handleAsync(ss, cmd)
	case OpCancel:
		s.handleCancel(ss, cmd)
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

// holds reports (under ss.mu) whether this session already holds key.
// Re-acquiring a held key would park the waiter behind its own session
// until the lease expires, so it is refused up front.
func (ss *session) holds(key uint64) bool {
	_, ok := ss.held[key]
	return ok
}

// errHeld is the refusal of an acquisition of a key the session holds.
func errHeld(key uint64) *ProtoError {
	return protoErrf(ErrCodeHeld, "key %#x already held by this session", key)
}

// handleTry is the synchronous acquisition: safe on the reader goroutine
// because TryLock never waits.
func (s *Server) handleTry(ss *session, cmd Command) {
	ss.mu.Lock()
	held := ss.holds(cmd.Key)
	ss.mu.Unlock()
	if held {
		ss.writeErr(errHeld(cmd.Key))
		return
	}
	ttl := s.clampTTL(cmd.TTL)
	pin := s.pin(cmd.Key)
	if !pin.TryLock() {
		pin.Unpin()
		ss.begin("BUSY").key(cmd.Key).end()
		return
	}
	if token, ok := s.grant(ss, cmd.Key, pin, ttl); ok {
		ss.begin("GRANTED").key(cmd.Key).num(token).ms(ttl).end()
	} // else the session died under us (Close racing the reader)
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

// handleAsync admits a wait: count it against QueueDepth, register the
// wait, pin its key, acknowledge with QUEUED and only then start the
// goroutine that acquires — so GRANT follows QUEUED on the wire by program
// order. From there the waiter is parked in the lock's own FIFO queue;
// nothing else stands in for it.
func (s *Server) handleAsync(ss *session, cmd Command) {
	timeout := cmd.Timeout
	if timeout <= 0 {
		timeout = defaultWaitTimeout
	}
	done := make(chan struct{})
	w := &wait{
		id:    cmd.ID,
		key:   cmd.Key,
		ttl:   s.clampTTL(cmd.TTL),
		bound: locks.Cancel{Done: done, Deadline: time.Now().Add(timeout)},
		done:  done,
	}

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
	if ss.holds(cmd.Key) {
		ss.mu.Unlock()
		ss.writeErr(errHeld(cmd.Key))
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

	w.pin = s.pin(cmd.Key)
	ss.begin("QUEUED").num(cmd.ID).end()
	s.waitWG.Add(1)
	go s.runWait(ss, w)
}

// runWait executes one asynchronous acquisition on its own goroutine: the
// pin's LockCancel spins a few tries and then parks in the key's FIFO queue
// until the releaser hands it the lock or the wait's one Cancel fires — the
// timeout, a cancel op, the session's death. An abandoned wait unlinks
// itself from the queue it is parked in (locks.Cancel protocol) instead of
// occupying a slot until its turn: it holds nothing. The QueueDepth slot
// comes back before the terminal line goes out, so a client that has read
// the line can count on the slot.
func (s *Server) runWait(ss *session, w *wait) {
	defer s.waitWG.Done()
	locked := w.pin.LockCancel(&w.bound)
	ss.mu.Lock()
	delete(ss.waits, w.id)
	ss.mu.Unlock()
	s.waiting.Add(-1)
	if !locked {
		w.pin.Unpin()
		if w.bound.TimedOut() {
			s.timeouts.Add(1)
			ss.begin("TIMEOUT").num(w.id).end()
		} else {
			s.cancels.Add(1)
			ss.begin("CANCELLED").num(w.id).end()
		}
		return
	}
	token, ok := s.grant(ss, w.key, w.pin, w.ttl)
	if !ok {
		// Granted after the session died: the grant beat the teardown's
		// abort, and went straight back.
		s.cancels.Add(1)
		return
	}
	ss.begin("GRANT").num(w.id).key(w.key).num(token).ms(w.ttl).end()
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
