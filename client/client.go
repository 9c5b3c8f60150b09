// Package client is the Go client for glsd, the GLS lock server (package
// server): a connection speaks the line protocol and demultiplexes
// asynchronous grant/expiry notices from synchronous replies. It keeps no
// per-key state: a grant's fencing token is the return value of the call
// that took it, which the caller hands to a token-checking consumer (see
// FencedStore) alongside the guarded write.
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
// CPU from the read loop and the server it waits on. Its buffers are sized
// to the line protocol (writeBufBytes, readBufBytes), so an idle Conn holds
// its lines, not bufio's 4 KB defaults. A Conn keeps no per-key state: the
// token of a grant is what TryLock or Lock returned, and the session's
// holdings are the server's to track.
type Conn struct {
	nc net.Conn
	bw *bufio.Writer

	// reqMu serializes request/response pairs: the protocol answers
	// synchronous requests in order, so one round trip at a time keeps the
	// pairing trivial. Its holder is blocked on the network for the whole
	// round trip, so it is a reqLock, not a sync.Mutex: a waiter parks at
	// once instead of spinning first, and admission is otherwise
	// sync.Mutex's (barging, with a hand-off to a waiter starved for
	// starvationThreshold).
	reqMu reqLock

	// syncCh carries the reply to the round trip in flight. reqMu allows at
	// most one synchronous reply outstanding and the channel holds one, so
	// the read loop's delivery never blocks: a full channel is a reply
	// nobody asked for.
	syncCh chan reply

	mu      sync.Mutex
	waits   map[uint64]chan reply
	expired func(key, token uint64)

	nextWait atomic.Uint64

	done    chan struct{}
	readErr error
}

// The connection's buffers. A request is written and flushed whole, so the
// write buffer is empty between requests and needs only room for one: none
// is longer than 90 B. The read buffer matches glsd's request scanner, which
// starts at 512 B; a longer reply (a long ERR detail) is read whole by the
// read loop's copy.
const (
	writeBufBytes = 128
	readBufBytes  = 512
)

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
		syncCh: make(chan reply, 1),
		waits:  make(map[uint64]chan reply),
		done:   make(chan struct{}),
	}
	go c.readLoop(bufio.NewReaderSize(nc, readBufBytes))
	r, err := c.begin("session").do()
	if err != nil {
		_ = nc.Close()
		return nil, err
	}
	if !r.is("SESSION", 1) {
		_ = nc.Close()
		return nil, fmt.Errorf("glsd client: bad session reply %q", r)
	}
	return c, nil
}

// OnExpired installs a callback for server-initiated lease expiries
// (EXPIRED notices). Called from the read loop; keep it quick.
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
	if err := c.nc.Close(); !errors.Is(err, net.ErrClosed) { // closed before, by Close or the read loop
		return err
	}
	return nil
}

// reply is one server line as the read loop parsed it, small enough to
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

// readLoop demultiplexes server lines: wait-id-bearing verbs and expiry
// notices are asynchronous and route by id; everything else answers the
// single outstanding synchronous request.
func (c *Conn) readLoop(br *bufio.Reader) {
	defer func() {
		c.mu.Lock()
		for id, ch := range c.waits {
			close(ch)
			delete(c.waits, id)
		}
		c.mu.Unlock()
		close(c.done)
		// After done, so a round trip that trips over the closed socket
		// reports what the read loop died of. The session is over either
		// way; hanging up lets the server release what it held.
		_ = c.nc.Close()
	}()
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// Longer than the read buffer (a long ERR detail): the one kind
			// of line that is copied.
			head := bytes.Clone(line)
			line, err = br.ReadBytes('\n')
			line = append(head, line...)
		}
		if err != nil {
			c.readErr = err
			return
		}
		r := parseReply(line)
		switch r.verb {
		case "GRANT", "TIMEOUT", "CANCELLED":
			if r.n == 0 {
				continue
			}
			c.mu.Lock()
			ch := c.waits[r.num[0]]
			delete(c.waits, r.num[0])
			c.mu.Unlock()
			if ch != nil {
				ch <- r // never blocks: one terminal line per wait, one slot
			}
		case "EXPIRED":
			if r.n != 2 {
				continue
			}
			c.mu.Lock()
			fn := c.expired
			c.mu.Unlock()
			if fn != nil {
				fn(r.num[0], r.num[1])
			}
		default:
			if r.verb == "" && r.text == "" {
				continue // a blank line
			}
			select {
			case c.syncCh <- r:
			default:
				// The one slot is taken and no round trip can be waiting
				// for a second reply: the stream is out of step. Fail the
				// connection now.
				c.readErr = fmt.Errorf("glsd client: unsolicited reply %q", r)
				return
			}
		}
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
// the error it names.
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
	select {
	case r := <-c.syncCh:
		if r.verb == "ERR" {
			code, detail, _ := strings.Cut(r.text, " ")
			return reply{}, errForCode(code, detail)
		}
		return r, nil
	case <-c.done:
		return reply{}, c.broken(nil)
	}
}

// broken is a round trip's error on a dead connection: ErrClosed, with what
// the read loop died of if it has (that came first), else the write error.
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
	c.waits[id] = ch
	c.mu.Unlock()

	q := c.begin("wait").num(id).key(key).ms(ttl)
	if timeout > 0 {
		q = q.ms(timeout)
	}
	if _, err := q.do(); err != nil {
		c.mu.Lock()
		delete(c.waits, id)
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
