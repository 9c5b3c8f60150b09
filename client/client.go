// Package client is the Go client for glsd, the GLS lock server (package
// server): a connection speaks the line protocol and demultiplexes
// asynchronous grant/expiry notices from synchronous replies. A round trip
// reads its own reply off the socket unless the connection's reader
// goroutine holds the read baton (around waits that glsd queues, and on an
// idle connection).
// It keeps no per-key state: a grant's fencing token is the return value of
// the call that took it, which the caller hands to a token-checking consumer
// (see FencedStore) alongside the guarded write.
package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel errors mapping the server's refusals.
var (
	// ErrBusy reports a trylock that lost: the key is held elsewhere.
	ErrBusy = errors.New("glsd client: key busy")
	// ErrTimeout reports a wait that hit its timeout.
	ErrTimeout = errors.New("glsd client: wait timed out")
	// ErrCancelled reports a wait ended by cancellation.
	ErrCancelled = errors.New("glsd client: wait cancelled")
	// ErrNotHeld reports an unlock or renew of a key this session does not
	// hold.
	ErrNotHeld = errors.New("glsd client: key not held")
	// ErrExpired reports a renew that arrived after the lease lapsed; the
	// lock is gone and must be reacquired (with a fresh, larger token).
	ErrExpired = errors.New("glsd client: lease expired")
	// ErrClosed reports use of a closed or broken connection.
	ErrClosed = errors.New("glsd client: connection closed")
)

// ServerError is a server refusal that has no sentinel: the raw ERR code
// and detail.
type ServerError struct {
	Code   string
	Detail string
}

// Error renders the code and detail as the server sent them.
func (e *ServerError) Error() string {
	return fmt.Sprintf("glsd client: server error %s: %s", e.Code, e.Detail)
}

// errForCode maps an ERR line to the friendliest error available.
func errForCode(code, detail string) error {
	switch code {
	case "notheld":
		return ErrNotHeld
	case "expired":
		return ErrExpired
	default:
		return &ServerError{Code: code, Detail: detail}
	}
}

// Conn is one session with a glsd server. It is safe for concurrent use:
// synchronous requests are serialized, one round trip at a time, and each
// outstanding asynchronous acquisition has its own delivery channel keyed by
// wait id. Goroutines sharing a Conn queue for their round trips on a lock
// that parks them rather than spinning (reqLock): the goroutine they wait
// for is blocked on the network, not running, so spinning would only take
// CPU from the reader and the server it waits on. Its buffers are sized
// to the line protocol (writeBufBytes, readBufBytes), so an idle Conn holds
// its lines, not bufio's 4 KB defaults. A Conn keeps no per-key state: the
// token of a grant is what TryLock or Lock returned, and the session's
// holdings are the server's to track.
//
// One goroutine at a time reads the socket: the holder of the read baton.
// A round trip that finds the baton free takes it and reads its own reply,
// so no second goroutine is woken to pass the reply on; the Conn's reader
// goroutine holds the baton while a Lock's wait is queued and lingerWindow
// after, and on a Conn idle for lingerWindow, so a GRANT, an EXPIRED notice
// or a dead peer is seen with no call in flight. A wait whose GRANT came in
// the same read as its QUEUED (a free key) has not queued, whichever
// goroutine read it: the reader is not asked for the baton, and one that
// holds it (an idle Conn) hands it over with the QUEUED, so the round trips
// after that Lock read their own replies. Whoever holds the baton routes
// the asynchronous lines it reads to their owners. While queued waits end
// less than lingerWindow apart the reader never lets the baton go, so
// every reply then reaches its caller through syncCh, a second wake per
// round trip.
type Conn struct {
	nc net.Conn
	bw *bufio.Writer
	br *bufio.Reader // read by the baton's holder only

	// reqMu serializes request/response pairs: the protocol answers
	// synchronous requests in order, so one round trip at a time keeps the
	// pairing trivial. Its holder is blocked on the network for the whole
	// round trip, so it is a reqLock, not a sync.Mutex: a waiter parks at
	// once instead of spinning first, and admission is otherwise
	// sync.Mutex's (barging, with a hand-off to a waiter starved for
	// starvationThreshold).
	reqMu reqLock

	// baton is the right to read nc: odd while a goroutine holds it. Every
	// take and every release adds one, so the reader goroutine tells an
	// idle Conn from a busy one by the word alone.
	baton atomic.Uint64
	// handed is set by the reader goroutine when it passes the baton on
	// with the reply it sends on syncCh, and cleared by the round trip that
	// receives it, which then releases the baton.
	handed bool
	// wanted asks for the reader goroutine to hold the baton: a wait was
	// registered, and keep has not since found the Conn with no wait
	// registered and nothing to linger for. A round trip that releases the
	// baton kicks the reader while it is set and a wait that queued is
	// outstanding: a GRANT routed with its QUEUED leaves the reader nothing
	// to read for.
	wanted atomic.Bool
	kick   chan struct{} // one slot: the reader goroutine should try the baton
	idle   *time.Timer   // the reader goroutine's idle check; armed only while it lacks the baton

	// syncCh carries the reply to a round trip that found the baton held by
	// the reader goroutine. reqMu allows at most one synchronous reply
	// outstanding and the channel holds one, so the reader's delivery
	// never blocks: a full channel is a reply nobody asked for.
	syncCh chan reply

	mu       sync.Mutex
	waits    map[uint64]pending
	queued   int       // the waits in waits that queued
	waitEnd  time.Time // when the last wait that queued was ended
	expired  func(key, token uint64)
	nextWait atomic.Uint64

	done    chan struct{}
	readErr error
}

// pending is one outstanding wait.
type pending struct {
	ch chan reply // its terminal line: GRANT, TIMEOUT or CANCELLED
	// queued is set by the baton's holder that read the wait's QUEUED, once
	// it has routed the lines that came in the same read and found the wait
	// still outstanding. Only a wait that queued keeps the reader goroutine
	// reading, or starts its linger when it ends.
	queued bool
}

// The connection's buffers. A request is written and flushed whole, so the
// write buffer is empty between requests and needs only room for one: none
// is longer than 90 B. The read buffer matches glsd's request scanner, which
// starts at 512 B; a longer reply (a long ERR detail) is read whole by
// readLine's copy.
const (
	writeBufBytes = 128
	readBufBytes  = 512
)

// lingerWindow is how long the reader goroutine keeps the baton after a
// wait that queued has ended, and how long a Conn must go without a round
// trip before it takes the baton. The first covers a Lock's Token and
// Unlock round trips and the next Lock (≈ 0.1 ms on loopback): a round trip
// just after a wait that had parked the reader, read for itself, was slower
// than one answered by the reader (EXPERIMENTS.md). A wait granted in the
// read that carried its QUEUED never queued and starts no linger, whichever
// goroutine read it, and the round trips after it read for themselves. The
// second bounds how late an idle Conn sees an EXPIRED notice or a dead
// peer, at two windows, and sets how often a busy Conn's reader wakes.
const lingerWindow = time.Millisecond

// Dial connects to a glsd server and opens a session.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return open(nc)
}

// open runs the session over nc, which it closes if the session does not
// open.
func open(nc net.Conn) (*Conn, error) {
	c := &Conn{
		nc:     nc,
		bw:     bufio.NewWriterSize(nc, writeBufBytes),
		br:     bufio.NewReaderSize(nc, readBufBytes),
		kick:   make(chan struct{}, 1),
		idle:   time.NewTimer(lingerWindow),
		syncCh: make(chan reply, 1),
		waits:  make(map[uint64]pending),
		done:   make(chan struct{}),
	}
	go c.reader()
	r, err := c.begin("session").do()
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	if !r.is("SESSION", 1) {
		_ = c.Close()
		return nil, fmt.Errorf("glsd client: bad session reply %q", r)
	}
	return c, nil
}

// OnExpired installs a callback for server-initiated lease expiries
// (EXPIRED notices). It is called by whichever goroutine reads the notice:
// the Conn's reader, or a round trip in progress on this Conn, which holds
// the Conn's request lock meanwhile. So keep it quick, and do not call the
// Conn from it: such a call waits for the very round trip that runs it.
func (c *Conn) OnExpired(fn func(key, token uint64)) {
	c.mu.Lock()
	c.expired = fn
	c.mu.Unlock()
}

// Close ends the session by closing the socket; it sends nothing. glsd
// tears a session down on EOF as it does on quit, releasing every lease the
// session still holds, and a call still in flight on this Conn returns an
// error wrapping ErrClosed. Closing twice is not an error.
func (c *Conn) Close() error {
	err := c.nc.Close()
	// A reader goroutine with the baton to take finds the socket closed,
	// fails the connection and ends.
	c.wake()
	if !errors.Is(err, net.ErrClosed) { // closed before, by Close or a failed read
		return err
	}
	return nil
}

// reply is one server line as readLine parsed it, small enough to
// travel by value: nothing is allocated for a reply made of a verb and
// numbers, which is every reply on the single-key paths.
type reply struct {
	verb string    // the protocol's spelling, interned; "" for a verb unknown here
	n    int       // leading numeric fields parsed into num (at most the verb's count)
	num  [4]uint64 // keys, tokens, ids, milliseconds, in wire order
	text string    // whatever followed: ERR's code and detail, STATS' fields
}

// replyVerbs is the response grammar: each verb with how many leading
// numeric fields it carries; the frequent ones first.
var replyVerbs = [...]struct {
	name string
	nums int
}{
	{"GRANTED", 3}, {"RELEASED", 1}, {"GRANT", 4}, {"TOKEN", 2}, {"QUEUED", 1},
	{"BUSY", 1}, {"RENEWED", 3}, {"TIMEOUT", 1}, {"CANCELLED", 1}, {"EXPIRED", 2},
	{"PONG", 0}, {"SESSION", 1}, {"OK", 0}, {"STATS", 0}, {"ERR", 0}, {"BYE", 0},
}

// parseReply parses one line out of the read buffer; only text is copied.
func parseReply(line []byte) reply {
	line = bytes.TrimSpace(line)
	verb, rest, _ := bytes.Cut(line, []byte(" "))
	var r reply
	for _, v := range replyVerbs {
		if string(verb) != v.name {
			continue
		}
		r.verb = v.name
		for r.n < v.nums && len(rest) > 0 {
			field, after, _ := bytes.Cut(rest, []byte(" "))
			x, err := strconv.ParseUint(string(field), 0, 64) // the field does not escape: no copy
			if err != nil {
				break
			}
			r.num[r.n], rest = x, after
			r.n++
		}
		r.text = string(rest)
		return r
	}
	r.text = string(line)
	return r
}

// is reports whether r is exactly verb followed by n numbers.
func (r reply) is(verb string, n int) bool {
	return r.verb == verb && r.n == n && r.text == ""
}

// String renders the reply for error messages.
func (r reply) String() string {
	b := []byte(r.verb)
	for _, x := range r.num[:r.n] {
		b = strconv.AppendUint(append(b, ' '), x, 10)
	}
	if r.text != "" && len(b) > 0 {
		b = append(b, ' ')
	}
	return string(b) + r.text
}

// readLine reads and parses the next line; only the baton's holder calls
// it.
func (c *Conn) readLine() (reply, error) {
	line, err := c.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Longer than the read buffer (a long ERR detail): the one kind
		// of line that is copied.
		head := bytes.Clone(line)
		line, err = c.br.ReadBytes('\n')
		line = append(head, line...)
	}
	if err != nil {
		return reply{}, err
	}
	return parseReply(line), nil
}

// route delivers an asynchronous line to its owner and reports whether r
// is instead a synchronous reply, which the caller answers: wait-id-bearing
// verbs go to their wait by id, expiry notices to the OnExpired callback,
// and blank lines nowhere. Ending a wait that queued stamps waitEnd, which
// starts the reader's linger; ending one routed with its QUEUED does not.
func (c *Conn) route(r reply) (synchronous bool) {
	switch r.verb {
	case "GRANT", "TIMEOUT", "CANCELLED":
		if r.n == 0 {
			return false
		}
		c.mu.Lock()
		w, ok := c.waits[r.num[0]]
		if ok {
			delete(c.waits, r.num[0])
			if w.queued {
				c.queued--
				c.waitEnd = time.Now()
			}
		}
		c.mu.Unlock()
		if ok {
			w.ch <- r // never blocks: one terminal line per wait, one slot
		}
	case "EXPIRED":
		if r.n != 2 {
			return false
		}
		c.mu.Lock()
		fn := c.expired
		c.mu.Unlock()
		if fn != nil {
			fn(r.num[0], r.num[1])
		}
	default:
		return r.verb != "" || r.text != ""
	}
	return false
}

// takeBaton takes the read baton if it is free.
func (c *Conn) takeBaton() bool {
	v := c.baton.Load()
	return v&1 == 0 && c.baton.CompareAndSwap(v, v+1)
}

// releaseBaton frees the baton, whose holder has routed what is buffered
// (routeBuffered), and kicks the reader goroutine if a wait wants it
// reading and has queued. If no wait is registered (glsd answered a wait
// on a free key QUEUED and GRANT in one write, and routeBuffered ended
// it), it clears wanted instead, so the round trips after the Lock read
// their own replies.
func (c *Conn) releaseBaton() {
	c.baton.Add(1)
	if c.keep(false) {
		c.wake()
	}
}

// keep reports whether the reader goroutine should hold the baton: wanted
// is set and a wait that queued is outstanding or, with linger, ended
// within lingerWindow. The reader asks with linger once it has routed a
// synchronous reply and the lines behind it; a release asks without, to
// kick the reader. A wait ended by a GRANT that came with its QUEUED never
// queued, so a Lock on a free key gives the reader of an idle Conn nothing
// to read on for. Otherwise, if no wait is registered, keep clears wanted,
// under mu, so a wait registered meanwhile sets wanted after the clear. A
// wait registered but not yet queued neither counts nor clears: the holder
// that reads its QUEUED decides, and keeps or kicks the reader if it
// queued.
func (c *Conn) keep(linger bool) bool {
	if !c.wanted.Load() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.queued > 0 || linger && time.Since(c.waitEnd) < lingerWindow {
		return true
	}
	if len(c.waits) == 0 {
		c.wanted.Store(false)
	}
	return false
}

// routeBuffered routes the complete lines already buffered behind last,
// the synchronous reply the holder just read, before the holder lets the
// baton go or decides to read on: after a release nobody reads until the
// next holder, and a line left in the buffer would be taken by the next
// round trip as its reply. A synchronous line among them is a reply nobody
// asked for (the next request cannot have been written yet):
// routeBuffered stops there and returns it, ok false, for the holder to
// fail the connection. A partial line stays for the next holder. If last
// is a wait's QUEUED and that wait is still outstanding once the lines
// that came with it are routed, the wait has queued.
func (c *Conn) routeBuffered(last reply) (stray reply, ok bool) {
	for {
		buf, _ := c.br.Peek(c.br.Buffered())
		if bytes.IndexByte(buf, '\n') < 0 {
			break
		}
		r, _ := c.readLine() // buffered whole: cannot fail
		if c.route(r) {
			return r, false
		}
	}
	if last.verb == "QUEUED" && last.n == 1 {
		c.mu.Lock()
		if w, ok := c.waits[last.num[0]]; ok && !w.queued {
			w.queued = true
			c.waits[last.num[0]] = w
			c.queued++
		}
		c.mu.Unlock()
	}
	return reply{}, true
}

// unsolicited is the error of a stream out of step: a synchronous reply
// that no round trip can be waiting for.
func unsolicited(r reply) error {
	return fmt.Errorf("glsd client: unsolicited reply %q", r)
}

// wake kicks the reader goroutine to try the baton.
func (c *Conn) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// readOwn reads lines as the baton's holder until the synchronous reply to
// its own request, routing the asynchronous ones on the way and those
// buffered behind the reply, and releases the baton. A reply read whole is
// returned even if a stray line behind it then fails the connection; the
// baton then stays taken.
func (c *Conn) readOwn() (reply, error) {
	for {
		r, err := c.readLine()
		if err != nil {
			c.fail(err)
			return reply{}, c.broken(nil)
		}
		if c.route(r) {
			if stray, ok := c.routeBuffered(r); ok {
				c.releaseBaton()
			} else {
				c.fail(unsolicited(stray))
			}
			return r, nil
		}
	}
}

// fail ends the connection: it records what the connection died of,
// closes every wait's channel and done, and hangs up, so the server
// releases what the session held. Only the baton's holder calls it, and
// the baton is never released after, so it runs once and nothing reads the
// socket again.
func (c *Conn) fail(err error) {
	c.readErr = err
	c.mu.Lock()
	for id, w := range c.waits {
		close(w.ch)
		delete(c.waits, id)
	}
	c.queued = 0
	c.mu.Unlock()
	close(c.done)
	// After done, so a round trip that trips over the closed socket
	// reports what the connection died of.
	_ = c.nc.Close()
}

// reader is the Conn's reader goroutine. Without the baton it sleeps until
// kicked (a wait wants it reading, or Close) or until a tick of the idle
// timer finds the baton word unchanged since the last one: no round trip
// took the baton for a whole lingerWindow. It then takes the baton and
// reads until readHeld passes it on, or until the connection dies.
func (c *Conn) reader() {
	defer c.idle.Stop()
	armed, seen := true, c.baton.Load()
	for {
		select {
		case <-c.kick:
		case <-c.idle.C:
			armed = false
			if v := c.baton.Load(); v != seen {
				seen, armed = v, true
				c.idle.Reset(lingerWindow)
				continue
			}
		case <-c.done:
			return
		}
		if !c.takeBaton() {
			// A round trip holds it. It kicks on release if a wait wants
			// the reader; the ticks watch for idleness otherwise.
			if !armed {
				armed = true
				c.idle.Reset(lingerWindow)
			}
			continue
		}
		if armed && !c.idle.Stop() {
			select { // a tick that fired meanwhile would only be stale
			case <-c.idle.C:
			default:
			}
		}
		if !c.readHeld() {
			return
		}
		armed, seen = true, c.baton.Load()
		c.idle.Reset(lingerWindow)
	}
}

// readHeld reads as the reader goroutine, holding the baton. A synchronous
// reply goes to the round trip waiting on syncCh, once the lines that came
// in the same read are routed. While keep says so the reader reads on;
// otherwise it passes the baton to that round trip with the reply, and
// returns true. It returns false if the connection died. A round trip
// prefers a delivered reply to done, so a reply read whole reaches its
// caller whichever goroutine read it.
func (c *Conn) readHeld() bool {
	for {
		r, err := c.readLine()
		if err != nil {
			c.fail(err)
			return false
		}
		if !c.route(r) {
			continue
		}
		if len(c.syncCh) != 0 {
			// The one slot is taken and no round trip can be waiting for a
			// second reply: the stream is out of step.
			c.fail(unsolicited(r))
			return false
		}
		// Routed first, a GRANT behind its wait's QUEUED ends a wait that
		// never queued, and keep does not read on for it.
		stray, ok := c.routeBuffered(r)
		if ok && c.keep(true) {
			c.syncCh <- r
			continue
		}
		// Pass the baton with the reply: the round trip that takes it frees
		// the baton itself, so the next round trip can neither find it free
		// before this reply is delivered nor find it held by a reader about
		// to stop. The reply was read whole, so it is delivered before a
		// stray line behind it fails the connection; the baton then stays
		// taken.
		c.handed = ok
		c.syncCh <- r
		if !ok {
			c.fail(unsolicited(stray))
		}
		return ok
	}
}

// request is one request line under construction in the connection's write
// buffer: begin takes reqMu and writes the verb, the field methods
// append (no string is made on the way), do sends the line and waits for
// its reply.
type request struct {
	c *Conn
	b []byte
}

func (c *Conn) begin(verb string) request {
	c.reqMu.Lock()
	return request{c, append(c.bw.AvailableBuffer(), verb...)}
}

// key appends a key (hex, as the server prints them).
func (q request) key(k uint64) request {
	q.b = strconv.AppendUint(append(q.b, " 0x"...), k, 16)
	return q
}

// num appends a decimal field.
func (q request) num(n uint64) request {
	q.b = strconv.AppendUint(append(q.b, ' '), n, 10)
	return q
}

// ms appends a duration in milliseconds; negative means the server default.
func (q request) ms(d time.Duration) request {
	if d < 0 {
		d = 0
	}
	return q.num(uint64(d.Milliseconds()))
}

// do sends the request and returns its reply; an ERR reply comes back as
// the error it names. The reply is read here if the baton is free; else the
// reader goroutine, which holds it, sends the reply on syncCh, and may hand
// the baton over with it.
func (q request) do() (reply, error) {
	c := q.c
	defer c.reqMu.Unlock()
	_, err := c.bw.Write(append(q.b, '\r', '\n'))
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		return reply{}, c.broken(err)
	}
	var r reply
	if c.takeBaton() {
		// Free, so nobody has read since this request was written: the
		// reply is still on the socket.
		if r, err = c.readOwn(); err != nil {
			return reply{}, err
		}
	} else {
		select {
		case r = <-c.syncCh:
		case <-c.done:
			select {
			case r = <-c.syncCh: // delivered before the connection failed
			default:
				return reply{}, c.broken(nil)
			}
		}
		if c.handed {
			c.handed = false
			c.releaseBaton() // the reader routed what is buffered
		}
	}
	if r.verb == "ERR" {
		code, detail, _ := strings.Cut(r.text, " ")
		return reply{}, errForCode(code, detail)
	}
	return r, nil
}

// broken is a round trip's error on a dead connection: ErrClosed, with what
// the connection died of if it has (that came first), else the write error.
func (c *Conn) broken(err error) error {
	select {
	case <-c.done:
		err = c.readErr
	default:
	}
	return errors.Join(ErrClosed, err)
}

// TryLock attempts key without waiting. On success it returns the grant's
// fencing token; a held key returns ErrBusy. ttl <= 0 uses the server
// default.
func (c *Conn) TryLock(key uint64, ttl time.Duration) (uint64, error) {
	q := c.begin("trylock").key(key)
	if ttl > 0 {
		q = q.ms(ttl)
	}
	r, err := q.do()
	if err != nil {
		return 0, err
	}
	switch {
	case r.verb == "BUSY":
		return 0, ErrBusy
	case r.is("GRANTED", 3): // key token ttl
		return r.num[1], nil
	}
	return 0, fmt.Errorf("glsd client: unexpected reply %q", r)
}

// Lock acquires key, waiting in the server's queue. It returns the grant's
// fencing token. ttl <= 0 uses the server default lease; timeout <= 0 uses
// the server default wait bound. ctx cancellation sends a cancel op; if
// the grant wins the race anyway, the lock is released and ctx.Err()
// returned.
func (c *Conn) Lock(ctx context.Context, key uint64, ttl, timeout time.Duration) (uint64, error) {
	r, err := c.wait(ctx, key, ttl, timeout)
	if err != nil {
		return 0, err
	}
	if !r.is("GRANT", 4) { // id key token ttl
		return 0, fmt.Errorf("glsd client: bad GRANT reply %q", r)
	}
	return r.num[2], nil
}

// wait runs one asynchronous acquisition to its terminal reply.
func (c *Conn) wait(ctx context.Context, key uint64, ttl, timeout time.Duration) (reply, error) {
	id := c.nextWait.Add(1)
	ch := make(chan reply, 1)
	c.mu.Lock()
	c.waits[id] = pending{ch: ch}
	c.wanted.Store(true) // before the wait request: if the wait queues, whoever reads its QUEUED keeps or kicks the reader
	c.mu.Unlock()

	q := c.begin("wait").num(id).key(key).ms(ttl)
	if timeout > 0 {
		q = q.ms(timeout)
	}
	if _, err := q.do(); err != nil {
		c.mu.Lock()
		delete(c.waits, id) // not queued: its QUEUED never reached it
		c.mu.Unlock()
		return reply{}, err
	}

	cancelled := false
	ctxDone := ctx.Done()
	for {
		select {
		case r, ok := <-ch:
			if !ok {
				return reply{}, ErrClosed
			}
			switch r.verb {
			case "TIMEOUT":
				return reply{}, ErrTimeout
			case "CANCELLED":
				if cancelled {
					return reply{}, ctx.Err()
				}
				return reply{}, ErrCancelled
			}
			if cancelled {
				// The grant beat the cancel; the caller wanted out, so hand
				// the lock straight back.
				_ = c.Unlock(key)
				return reply{}, ctx.Err()
			}
			return r, nil
		case <-ctxDone:
			cancelled = true
			ctxDone = nil // one cancel op, then wait for the terminal reply
			if _, err := c.begin("cancel").num(id).do(); err != nil {
				return reply{}, err
			}
		}
	}
}

// Unlock releases a held key.
func (c *Conn) Unlock(key uint64) error {
	r, err := c.begin("unlock").key(key).do()
	if err != nil {
		return err
	}
	if !r.is("RELEASED", 1) {
		return fmt.Errorf("glsd client: unexpected reply %q", r)
	}
	return nil
}

// Renew extends a held lease and returns its (unchanged) fencing token.
// ErrExpired means the lease lapsed: the lock is gone, reacquire.
func (c *Conn) Renew(key uint64, ttl time.Duration) (uint64, error) {
	q := c.begin("renew").key(key)
	if ttl > 0 {
		q = q.ms(ttl)
	}
	r, err := q.do()
	if err != nil {
		return 0, err
	}
	if !r.is("RENEWED", 3) { // key token ttl
		return 0, fmt.Errorf("glsd client: unexpected reply %q", r)
	}
	return r.num[1], nil
}

// Token asks the server for key's fencing high-water mark — any session's,
// not just this one's: no live grant of key carries a larger token, and
// every later grant will.
func (c *Conn) Token(key uint64) (uint64, error) {
	r, err := c.begin("token").key(key).do()
	if err != nil {
		return 0, err
	}
	if !r.is("TOKEN", 2) { // key n
		return 0, fmt.Errorf("glsd client: unexpected reply %q", r)
	}
	return r.num[1], nil
}

// Ping round-trips a no-op (liveness, latency probes).
func (c *Conn) Ping() error {
	r, err := c.begin("ping").do()
	if err != nil {
		return err
	}
	if !r.is("PONG", 0) {
		return fmt.Errorf("glsd client: unexpected reply %q", r)
	}
	return nil
}

// Stats fetches the server's counters as a name→value map.
func (c *Conn) Stats() (map[string]uint64, error) {
	r, err := c.begin("stats").do()
	if err != nil {
		return nil, err
	}
	if r.verb != "STATS" {
		return nil, fmt.Errorf("glsd client: unexpected reply %q", r)
	}
	out := make(map[string]uint64)
	for text := r.text; text != ""; {
		var field string
		field, text, _ = strings.Cut(text, " ")
		name, val, _ := strings.Cut(field, "=")
		if n, perr := strconv.ParseUint(val, 10, 64); perr == nil {
			out[name] = n
		}
	}
	return out, nil
}
