package telemetry

// glslive: the streaming side of glstat. Snapshots answer "what happened
// between two reads"; the event hub answers "what just changed" — mode and
// family transitions, starvation escalations, deadlock reports,
// retirements, abort storms — as they occur, pushed through a bounded
// lock-free broadcast ring to any number of subscribers.
//
// The design constraint is the same one that shaped the counters: the
// observed paths must never wait for the observer. Publishing is a handful
// of atomic operations on a fixed ring — no locks, no blocking sends, no
// allocation beyond the event itself — and every emission site is already a
// cold path (a mode transition happens at most once per adaptation period;
// a starvation escalation means a reader already waited out many writer
// phases). A subscriber that stops draining loses its oldest events and
// gets an exact count of how many; it cannot stall a publisher, and with no
// subscribers registered a publish is a pointer load and a length check.

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies a lock event.
type EventKind uint8

// The event kinds, ordered roughly by how alarmed an operator should be.
const (
	// EventTransition: a GLK mode change or an adaptive RW family change,
	// with the lock's own reason string.
	EventTransition EventKind = iota
	// EventStarvation: a blocked reader crossed the starvation bound and
	// asked for phase-fair admission (glsfair).
	EventStarvation
	// EventAbortStorm: cancellable acquisitions (glsx) are giving up on
	// this lock — emitted on the first abort and then every 64th per cause,
	// so a storm surfaces without flooding the ring.
	EventAbortStorm
	// EventDeadlock: debug mode found a wait-for cycle through this lock.
	EventDeadlock
	_ // unused: Kind is a number in an event's JSON, so EventRetired stays 5
	// EventRetired: the lock was freed and its stats folded into the
	// retired totals.
	EventRetired
)

// String names the kind for reports and tickers.
func (k EventKind) String() string {
	switch k {
	case EventTransition:
		return "transition"
	case EventStarvation:
		return "starvation"
	case EventAbortStorm:
		return "abort-storm"
	case EventDeadlock:
		return "deadlock"
	case EventRetired:
		return "retired"
	default:
		return "unknown"
	}
}

// Event is one observed lock occurrence. Events are immutable once
// published; subscribers receive shared pointers, never copies to mutate.
type Event struct {
	// Seq is the hub-assigned sequence number: a gapless global order over
	// every published event, which is what makes drop accounting exact.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Kind EventKind `json:"kind"`

	// Key and Label identify the lock, LockKind its algorithm ("glk",
	// "glkrw", an explicit Table-1 name).
	Key      uint64 `json:"key"`
	Label    string `json:"label,omitempty"`
	LockKind string `json:"lock_kind,omitempty"`

	// From and To carry the edge of a transition event; empty otherwise.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`

	// Reason is the emitter's explanation in its own words: GLK's
	// transition trigger, the deadlock cycle, the abort cause.
	Reason string `json:"reason,omitempty"`

	// Count is kind-specific volume: the per-edge transition count, readers
	// starved so far, aborts so far for the storming cause.
	Count uint64 `json:"count,omitempty"`
}

// DefaultEventBuffer is the ring capacity used when Options.EventBuffer is
// zero: enough to lap only under a sustained storm, small enough that an
// idle registry with one subscriber holds a few KB of ring.
const DefaultEventBuffer = 1024

// eventRing is the fixed broadcast buffer: power-of-two slots addressed by
// sequence number. Allocated on first Subscribe, so registries nobody
// streams from pay two words.
type eventRing struct {
	mask  uint64
	slots []atomic.Pointer[Event]
}

// Hub is a bounded, lock-free, multi-producer broadcast ring. Publishers
// claim a sequence number and store their event into slot seq&mask;
// subscribers each keep a private cursor and read slots in sequence order.
// A subscriber that falls more than the ring size behind is lapped: the
// overwritten events are gone, and the subscriber's drop counter advances
// by exactly the number lost. Publishing never blocks and never waits for
// any subscriber.
type Hub struct {
	size uint64 // ring capacity (power of two), fixed at construction
	seq  atomic.Uint64
	ring atomic.Pointer[eventRing]

	subMu sync.Mutex
	subs  atomic.Pointer[[]*Subscriber] // copy-on-write, nil until first Subscribe
}

// newHub returns a hub whose ring will hold size events, rounded up to a
// power of two (0 selects DefaultEventBuffer).
func newHub(size int) *Hub {
	n := uint64(DefaultEventBuffer)
	if size > 0 {
		n = 1
		for n < uint64(size) && n < 1<<31 {
			n <<= 1
		}
	}
	return &Hub{size: n}
}

// Published reports how many events have been published over the hub's
// lifetime — the denominator for exact drop accounting: at quiescence,
// every subscriber's received + Dropped() counts from its subscription
// point add up to this.
func (h *Hub) Published() uint64 { return h.seq.Load() }

// Publish broadcasts an event to every current subscriber, stamping its
// time and sequence number. With no subscribers it is a pointer load and a
// nil check — emission sites do not need their own gating. Publish never
// blocks: a full ring overwrites the oldest slot, charging the loss to
// whichever subscribers had not read it yet.
func (h *Hub) Publish(ev Event) {
	subsp := h.subs.Load()
	if subsp == nil || len(*subsp) == 0 {
		return
	}
	ring := h.ring.Load() // non-nil: Subscribe installs the ring before the list
	ev.Time = time.Now()
	e := &ev
	e.Seq = h.seq.Add(1) - 1
	ring.slots[e.Seq&ring.mask].Store(e)
	for _, s := range *subsp {
		select {
		case s.ch <- struct{}{}:
		default:
		}
	}
}

// Subscribe registers a new subscriber positioned at the current head: it
// sees events published from now on. Close it when done, or its slot in
// the subscriber list lives for the hub's lifetime.
func (h *Hub) Subscribe() *Subscriber {
	h.subMu.Lock()
	defer h.subMu.Unlock()
	if h.ring.Load() == nil {
		r := &eventRing{mask: h.size - 1, slots: make([]atomic.Pointer[Event], h.size)}
		h.ring.Store(r)
	}
	s := &Subscriber{hub: h, cursor: h.seq.Load(), ch: make(chan struct{}, 1)}
	var next []*Subscriber
	if old := h.subs.Load(); old != nil {
		next = append(next, *old...)
	}
	next = append(next, s)
	h.subs.Store(&next)
	return s
}

// Subscriber is one consumer's position in the hub's event sequence. Poll
// and Dropped are owned by the consuming goroutine; a Subscriber must not
// be polled concurrently with itself (multiple consumers subscribe
// separately — the ring broadcasts).
type Subscriber struct {
	hub     *Hub
	cursor  uint64 // next sequence number to read
	dropped uint64
	ch      chan struct{}
	closed  atomic.Bool
}

// C returns a capacity-1 notification channel: a receive succeeds when at
// least one event was published since the last Poll. It is a level-ish
// wakeup, not a queue — after a wakeup, Poll drains everything available.
func (s *Subscriber) C() <-chan struct{} { return s.ch }

// Poll returns the events published since the previous Poll, oldest first,
// up to max (0 = all available). If the subscriber was lapped, the lost
// events are skipped and counted in Dropped. An in-flight publish (sequence
// claimed, slot not yet written) ends the batch; the event arrives on the
// next Poll.
func (s *Subscriber) Poll(max int) []*Event {
	if s.closed.Load() {
		return nil
	}
	h := s.hub
	ring := h.ring.Load()
	head := h.seq.Load()
	var out []*Event
	for s.cursor < head {
		if max > 0 && len(out) >= max {
			break
		}
		if behind := head - s.cursor; behind > ring.mask+1 {
			lost := behind - (ring.mask + 1)
			s.dropped += lost
			s.cursor += lost
		}
		ev := ring.slots[s.cursor&ring.mask].Load()
		if ev == nil || ev.Seq < s.cursor {
			// The publisher that claimed this sequence number has not
			// stored its event yet; everything after it is newer still.
			break
		}
		if ev.Seq > s.cursor {
			// Lapped between the head read and the slot read: this slot
			// already holds a later event. The one we wanted is gone.
			s.dropped++
			s.cursor++
			continue
		}
		out = append(out, ev)
		s.cursor++
	}
	return out
}

// Dropped reports how many events this subscriber lost to lapping, exact
// at quiescence: received + Dropped() equals the events published since
// Subscribe once publishers pause.
func (s *Subscriber) Dropped() uint64 { return s.dropped }

// Close unregisters the subscriber. Pending events are discarded; Poll
// returns nil afterwards. Close is idempotent and safe to call while
// publishers run.
func (s *Subscriber) Close() {
	if s.closed.Swap(true) {
		return
	}
	h := s.hub
	h.subMu.Lock()
	defer h.subMu.Unlock()
	old := h.subs.Load()
	if old == nil {
		return
	}
	next := make([]*Subscriber, 0, len(*old))
	for _, sub := range *old {
		if sub != s {
			next = append(next, sub)
		}
	}
	h.subs.Store(&next)
}

// Events returns the registry's event hub. The hub exists from
// construction (publishing with no subscribers is a nil check), so lock
// hooks and external emitters (the debug layer's deadlock reports) share
// one stream per registry.
func (r *Registry) Events() *Hub { return r.hub }

// labelFor reads the lock's label under the cold mutex, for emission sites
// that do not already hold it.
func (s *LockStats) labelFor() string {
	s.cold.Lock()
	l := s.label
	s.cold.Unlock()
	return l
}

// publishAbort emits the rate-limited abort-storm event: the first abort
// per cause announces the storm, every 64th thereafter reports its size.
// n is the cause counter's value after this abort.
func (s *LockStats) publishAbort(n uint64, cause string) {
	if s.hub == nil || (n != 1 && n&63 != 0) {
		return
	}
	s.hub.Publish(Event{
		Kind: EventAbortStorm, Key: s.key, Label: s.labelFor(),
		LockKind: s.kind, Reason: cause, Count: n,
	})
}
