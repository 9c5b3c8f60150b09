package server

import (
	"bufio"
	"cmp"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"gls"
	"gls/locks"
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
// cross-goroutine Unlock safe (the wait's goroutine that acquired published
// the grant under the same mutex; see DESIGN.md §14).

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

// slot is one key of an acquisition on its way to a grant: its place on the
// request line (replies list keys in wire order), the pin that keeps the key
// mapped while the request is in flight, and the token once it is granted.
type slot struct {
	key   uint64
	pos   int
	pin   gls.Pin
	token uint64
}

// slotsOf appends cmd's keys to dst as slots in key order, each key once
// (the first place it has on the line): the order every acquisition takes
// its locks in, so two overlapping requests can never deadlock against each
// other. A single-key op fits the caller's one-slot buffer; a batch costs
// one allocation.
func slotsOf(dst []slot, cmd Command) []slot {
	if !cmd.Op.many() {
		return append(dst, slot{key: cmd.Key})
	}
	dst = slices.Grow(dst, len(cmd.Keys))
	for i, k := range cmd.Keys {
		dst = append(dst, slot{key: k, pos: i})
	}
	slices.SortFunc(dst, func(a, b slot) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.pos, b.pos))
	})
	return slices.CompactFunc(dst, func(a, b slot) bool { return a.key == b.key })
}

// wait is one outstanding asynchronous acquisition (wait or lockmany).
type wait struct {
	id    uint64
	many  bool // a lockmany: the terminal line is GRANTMANY's shape
	ttl   time.Duration
	slots []slot  // in key order; pinned until granted or abandoned
	one   [1]slot // a single-key wait's slots: no second object

	// bound is the wait's one abort condition, handed to every lock it queues
	// on (it lives here so the acquisition allocates none): its Deadline is
	// the timeout, its Done is done, which a cancel op or the session's death
	// closes — once, under session.mu. Only the wait's goroutine touches it.
	bound locks.Cancel
	done  chan struct{}
}

// abort fires the wait's done channel. The caller holds session.mu.
func (w *wait) abort() {
	select {
	case <-w.done:
	default:
		close(w.done)
	}
}

// session is one connection's server-side state.
type session struct {
	id   uint64
	srv  *Server
	conn net.Conn

	// wmu serializes response lines: synchronous responses from the reader
	// goroutine interleave with asynchronous grants from waits' goroutines
	// and expiry notices from the sweeper, one whole line at a time.
	wmu sync.Mutex
	bw  *bufio.Writer

	// mu guards the ownership state below.
	mu    sync.Mutex
	held  map[uint64]*grant
	waits map[uint64]*wait
	dead  bool
}

// writeTimeout bounds one write to a peer. A write blocks only when the
// peer has stopped reading and megabytes of unread responses fill the
// socket; past the bound the connection is closed, so no grant's goroutine
// and no sweeper pass waits on a stalled reader for longer than this.
const writeTimeout = 5 * time.Second

// peerWriter is the session's only way to the socket: every write carries a
// deadline, and a failed one closes the connection, which ends the reader
// goroutine and so runs the session's teardown. (bufio.Writer keeps the
// error, so later lines to a broken session are dropped without a syscall.)
type peerWriter struct{ conn net.Conn }

func (w peerWriter) Write(p []byte) (int, error) {
	_ = w.conn.SetWriteDeadline(time.Now().Add(writeTimeout)) // a failure here fails the Write too
	n, err := w.conn.Write(p)
	if err != nil {
		_ = w.conn.Close()
	}
	return n, err
}

// line is one response line under construction in the session's write
// buffer: begin takes wmu and writes the verb, the field methods append
// (nothing is rendered to a string on the way), end completes the line,
// flushes it and releases wmu.
type line struct {
	ss *session
	b  []byte
}

func (ss *session) begin(verb string) line {
	ss.wmu.Lock()
	return line{ss, append(ss.bw.AvailableBuffer(), verb...)}
}

// key appends a key (hex, like the telemetry reports).
func (l line) key(k uint64) line {
	l.b = strconv.AppendUint(append(l.b, " 0x"...), k, 16)
	return l
}

// num appends a decimal field: an id, a token, a count.
func (l line) num(n uint64) line {
	l.b = strconv.AppendUint(append(l.b, ' '), n, 10)
	return l
}

// ms appends a duration in milliseconds.
func (l line) ms(d time.Duration) line {
	l.b = strconv.AppendInt(append(l.b, ' '), d.Milliseconds(), 10)
	return l
}

// str appends a literal field.
func (l line) str(s string) line {
	l.b = append(append(l.b, ' '), s...)
	return l
}

// grants appends a batch's (key, token) pairs, in the slots' order.
func (l line) grants(slots []slot) line {
	for _, sl := range slots {
		l = l.key(sl.key).num(sl.token)
	}
	return l
}

// end completes the line and flushes it. Write errors need no handling
// here: peerWriter has closed the connection, and the teardown follows.
func (l line) end() {
	_, _ = l.ss.bw.Write(append(l.b, '\r', '\n'))
	_ = l.ss.bw.Flush()
	l.ss.wmu.Unlock()
}

// writeErr sends an ERR line for a rejected request.
func (ss *session) writeErr(perr *ProtoError) {
	ss.begin("ERR").str(perr.Code).str(perr.Detail).end()
}

// registerGrants turns an acquisition into grants, while the caller
// physically holds every slot's lock: it mints each key's fencing token
// (left in the slot for the reply), records the grants and schedules their
// leases, all under one hold of mu — so a batch is registered whole or, the
// session having died while the acquisition was in flight, not at all. The
// pins are the grants' from here on; on false they are still the caller's.
func (ss *session) registerGrants(slots []slot, ttl time.Duration) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.dead {
		return false
	}
	expiry := time.Now().Add(ttl)
	for i := range slots {
		sl := &slots[i]
		sl.token = sl.pin.NextSeq()
		g := &grant{sess: ss, key: sl.key, pin: sl.pin, token: sl.token, ttl: ttl, idx: -1}
		ss.held[sl.key] = g
		ss.srv.leases.schedule(g, expiry)
	}
	return true
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
	set.mu.Lock()
	set.next++
	ss := &session{
		id:    set.next,
		srv:   srv,
		conn:  conn,
		bw:    bufio.NewWriter(peerWriter{conn}),
		held:  make(map[uint64]*grant),
		waits: make(map[uint64]*wait),
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
