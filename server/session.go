package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"gls"
)

// Sessions. A session is one client connection's identity on the server:
// the unit of lock ownership (a lock is held *by a session*, released only
// through it), of liveness (connection death releases everything the
// session holds, through the lease machinery), and of the client-side
// token cache's scope.
//
// Single-remover invariant: a session's held map owns the underlying
// service lock for each granted key. Exactly one path removes a grant from
// the map — the unlock op, the expiry sweeper, or session teardown — and
// only the remover releases the lock, always after the removal and through
// the grant's pin, never through the service's key table. All removals run
// under session.mu, so a racing unlock and expiry cannot both release, and
// the mutex hand-over doubles as the happens-before edge that makes a
// cross-goroutine Unlock safe (the pool worker that acquired published the
// grant under the same mutex; see DESIGN.md §14).

// grant is one held lease: the session's record of a granted key.
type grant struct {
	sess *session
	key  uint64
	pin  gls.Pin // the lock object this grant holds; keeps the key mapped
	// token is the fencing token: pin.NextSeq, minted while the lock is
	// held, so it rises per key across sessions, expiries and idle-key
	// frees, and a store can reject a lapsed holder (client.FencedStore).
	token uint64
	ttl   time.Duration

	// expiry and idx place the grant in the lease heap (see leaseQueue).
	expiry time.Time
	idx    int
}

// wait is one outstanding asynchronous acquisition (wait or lockmany).
type wait struct {
	id     uint64
	keys   []uint64  // single-element for wait; wire order for lockmany
	pins   []gls.Pin // keys' lock objects, pinned until granted or abandoned
	ttl    time.Duration
	many   bool
	cancel context.CancelFunc // aborts the pool worker's LockCtx
}

// session is one connection's server-side state.
type session struct {
	id   uint64
	srv  *Server
	conn net.Conn

	// wmu serializes response lines: synchronous responses from the reader
	// goroutine interleave with asynchronous grants from pool workers and
	// expiry notices from the sweeper, one whole line at a time.
	wmu sync.Mutex
	bw  *bufio.Writer

	// mu guards the ownership state below.
	mu    sync.Mutex
	held  map[uint64]*grant
	waits map[uint64]*wait
	dead  bool

	// ctx is the session's lifetime; teardown cancels it, aborting every
	// queued acquisition at once.
	ctx    context.Context
	cancel context.CancelFunc
}

// writeLine sends one response line (the arguments are joined by spaces).
// Errors are swallowed: a session whose connection broke is torn down by
// its reader goroutine, and every other writer just stops mattering.
func (ss *session) writeLine(parts ...string) {
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	for i, p := range parts {
		if i > 0 {
			_ = ss.bw.WriteByte(' ')
		}
		_, _ = ss.bw.WriteString(p)
	}
	_, _ = ss.bw.WriteString("\r\n")
	_ = ss.bw.Flush()
}

// writeErr sends an ERR line for a rejected request.
func (ss *session) writeErr(perr *ProtoError) {
	ss.writeLine("ERR", perr.Code, perr.Detail)
}

// registerGrant turns an acquisition into a grant, while the caller
// physically holds pin's lock: it mints key's fencing token, records the
// grant and schedules its lease. The pin is the grant's from here on. If
// the session died while the acquisition was in flight, the lock goes
// straight back instead and registerGrant reports false.
func (ss *session) registerGrant(key uint64, pin gls.Pin, ttl time.Duration) (*grant, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.dead {
		giveBack(pin)
		return nil, false
	}
	g := &grant{sess: ss, key: key, pin: pin, token: pin.NextSeq(), ttl: ttl, idx: -1}
	ss.held[key] = g
	ss.srv.leases.schedule(g, time.Now().Add(ttl))
	return g, true
}

// takeGrant removes and returns key's grant if this session holds it —
// the single-remover step of unlock. The caller owns the release
// (Server.releaseGrant) on a true return.
func (ss *session) takeGrant(key uint64) (*grant, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	g, ok := ss.held[key]
	if ok {
		delete(ss.held, key)
	}
	return g, ok
}

// sessionSet is the server's session registry.
type sessionSet struct {
	mu   sync.Mutex
	m    map[uint64]*session
	next uint64
}

func newSessionSet() *sessionSet {
	return &sessionSet{m: make(map[uint64]*session)}
}

// add registers a new session for conn and returns it.
func (set *sessionSet) add(srv *Server, conn net.Conn) *session {
	ctx, cancel := context.WithCancel(context.Background())
	set.mu.Lock()
	set.next++
	ss := &session{
		id:     set.next,
		srv:    srv,
		conn:   conn,
		bw:     bufio.NewWriter(conn),
		held:   make(map[uint64]*grant),
		waits:  make(map[uint64]*wait),
		ctx:    ctx,
		cancel: cancel,
	}
	set.m[ss.id] = ss
	set.mu.Unlock()
	return ss
}

// remove drops a session from the registry.
func (set *sessionSet) remove(id uint64) {
	set.mu.Lock()
	delete(set.m, id)
	set.mu.Unlock()
}

// len reports live sessions.
func (set *sessionSet) len() int {
	set.mu.Lock()
	defer set.mu.Unlock()
	return len(set.m)
}

// each calls fn for every live session (teardown during Close).
func (set *sessionSet) each(fn func(*session)) {
	set.mu.Lock()
	sessions := make([]*session, 0, len(set.m))
	for _, ss := range set.m {
		sessions = append(sessions, ss)
	}
	set.mu.Unlock()
	for _, ss := range sessions {
		fn(ss)
	}
}

// idString renders the session id for the wire.
func (ss *session) idString() string { return fmt.Sprintf("%d", ss.id) }
