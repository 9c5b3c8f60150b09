package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gls/internal/stripe"
)

// TestHubPublishSubscribe: basic ordering, the subscription point, and
// the no-subscriber fast path.
func TestHubPublishSubscribe(t *testing.T) {
	h := newHub(16)
	// No subscribers: publishes are dropped without touching the ring.
	h.Publish(Event{Kind: EventTransition, Key: 1})
	if h.Published() != 0 {
		t.Fatalf("publish with no subscribers consumed a sequence number: %d", h.Published())
	}
	sub := h.Subscribe()
	defer sub.Close()
	for i := 0; i < 5; i++ {
		h.Publish(Event{Kind: EventTransition, Key: uint64(i)})
	}
	evs := sub.Poll(0)
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.Key != uint64(i) {
			t.Fatalf("event %d out of order: seq %d key %d", i, ev.Seq, ev.Key)
		}
		if ev.Time.IsZero() {
			t.Fatalf("event %d missing timestamp", i)
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d, want 0", sub.Dropped())
	}
	// max limits a batch without losing the remainder.
	for i := 0; i < 4; i++ {
		h.Publish(Event{Key: uint64(100 + i)})
	}
	if got := sub.Poll(3); len(got) != 3 {
		t.Fatalf("Poll(3) returned %d", len(got))
	}
	if rest := sub.Poll(0); len(rest) != 1 || rest[0].Key != 103 {
		t.Fatalf("remainder after bounded poll: %+v", rest)
	}
}

// TestHubDropAccounting: a subscriber lapped by the ring loses exactly the
// overwritten events and knows it.
func TestHubDropAccounting(t *testing.T) {
	h := newHub(8)
	sub := h.Subscribe()
	defer sub.Close()
	const published = 100
	for i := 0; i < published; i++ {
		h.Publish(Event{Key: uint64(i)})
	}
	evs := sub.Poll(0)
	if got := uint64(len(evs)) + sub.Dropped(); got != published {
		t.Fatalf("received %d + dropped %d != published %d", len(evs), sub.Dropped(), published)
	}
	if len(evs) != 8 {
		t.Fatalf("ring of 8 delivered %d events", len(evs))
	}
	// The survivors are the newest, still in order.
	for i, ev := range evs {
		if ev.Key != uint64(published-8+i) {
			t.Fatalf("survivor %d has key %d", i, ev.Key)
		}
	}
}

// TestHubMultipleSubscribers: the ring broadcasts; each subscriber has its
// own cursor and drop count, and Close detaches cleanly.
func TestHubMultipleSubscribers(t *testing.T) {
	h := newHub(16)
	a, b := h.Subscribe(), h.Subscribe()
	h.Publish(Event{Key: 1})
	if len(a.Poll(0)) != 1 || len(b.Poll(0)) != 1 {
		t.Fatal("both subscribers should see the event")
	}
	a.Close()
	h.Publish(Event{Key: 2})
	if got := a.Poll(0); got != nil {
		t.Fatalf("closed subscriber still receives: %+v", got)
	}
	if evs := b.Poll(0); len(evs) != 1 || evs[0].Key != 2 {
		t.Fatalf("surviving subscriber: %+v", evs)
	}
	b.Close()
	b.Close() // idempotent
}

// TestTransitionEventsOrdered: a forced mode arc shows up on a subscriber
// as ordered transition events with edges and reasons intact.
func TestTransitionEventsOrdered(t *testing.T) {
	reg := New(Options{})
	st := reg.Register(0xa, "glk")
	reg.SetLabel(0xa, "arc")
	sub := reg.Events().Subscribe()
	defer sub.Close()
	arc := [][2]string{{"ticket", "mcs"}, {"mcs", "mutex"}, {"mutex", "ticket"}}
	for _, e := range arc {
		st.Transition(e[0], e[1], "forced")
	}
	evs := sub.Poll(0)
	if len(evs) != len(arc) {
		t.Fatalf("got %d events, want %d: %+v", len(evs), len(arc), evs)
	}
	for i, ev := range evs {
		if ev.Kind != EventTransition || ev.From != arc[i][0] || ev.To != arc[i][1] {
			t.Fatalf("event %d: %+v, want %v", i, ev, arc[i])
		}
		if ev.Key != 0xa || ev.Label != "arc" || ev.Reason != "forced" || ev.Count != 1 {
			t.Fatalf("event %d metadata: %+v", i, ev)
		}
		if i > 0 && ev.Seq != evs[i-1].Seq+1 {
			t.Fatalf("sequence gap at %d: %+v", i, evs)
		}
	}
}

// TestStarvationAndAbortEvents: the rate-limited cold-site emissions fire
// on the first occurrence and then every 64th.
func TestStarvationAndAbortEvents(t *testing.T) {
	reg := New(Options{SamplePeriod: 1})
	st := reg.Register(0xb, "glkrw")
	st.EnableRW()
	sub := reg.Events().Subscribe()
	defer sub.Close()
	tok := stripe.Self()

	for i := 0; i < 130; i++ {
		st.RStarvedEvent(tok)
	}
	evs := sub.Poll(0)
	if len(evs) != 3 { // n==1, n==64, n==128
		t.Fatalf("starvation events: %d (%+v), want 3", len(evs), evs)
	}
	for _, ev := range evs {
		if ev.Kind != EventStarvation {
			t.Fatalf("kind %v", ev.Kind)
		}
	}
	if evs[2].Count != 128 {
		t.Fatalf("last starvation count %d, want 128", evs[2].Count)
	}

	for i := 0; i < 65; i++ {
		a := st.Arrive(tok)
		a.Aborted(true)
	}
	evs = sub.Poll(0)
	if len(evs) != 2 { // n==1, n==64
		t.Fatalf("abort-storm events: %d (%+v), want 2", len(evs), evs)
	}
	if evs[0].Kind != EventAbortStorm || evs[0].Reason != "deadline timeout" {
		t.Fatalf("abort event: %+v", evs[0])
	}
}

// TestFoldPublishesLifecycleEvents: Unregister emits retired for the key
// it folds, and only for it.
func TestFoldPublishesLifecycleEvents(t *testing.T) {
	reg := New(Options{})
	reg.Register(0x1, "glk")
	reg.Register(0x2, "glk")
	sub := reg.Events().Subscribe()
	defer sub.Close()

	reg.Unregister(0x1)
	evs := sub.Poll(0)
	if len(evs) != 1 || evs[0].Kind != EventRetired || evs[0].Key != 0x1 {
		t.Fatalf("unregister events: %+v", evs)
	}
}

// TestEventStreamRaceSoak: subscribe/poll/close churn racing publishers
// and register/unregister storms. Run under -race in CI;
// the assertion here is "no deadlock, no race, drops still account".
func TestEventStreamRaceSoak(t *testing.T) {
	reg := New(Options{SamplePeriod: 1, EventBuffer: 64})
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Publishers: transition storms on a stable lock plus lifecycle churn.
	st := reg.Register(0xfeed, "glk")
	st.EnableRW()
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				st.Transition("ticket", "mcs", fmt.Sprintf("storm %d", p))
				st.RStarvedEvent(uint64(p))
			}
		}(p)
	}
	// Lifecycle churn: register/unregister.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := 0x1000 + i%32
			reg.Register(k, "glk")
			if i%3 == 0 {
				reg.Unregister(k)
			}
		}
	}()
	// Subscriber churn: subscribe, poll a bit, close.
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub := reg.Events().Subscribe()
				for j := 0; j < 10; j++ {
					sub.Poll(16)
				}
				_ = sub.Dropped()
				sub.Close()
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Quiescent accounting: a fresh subscriber sees exactly what is
	// published after it.
	sub := reg.Events().Subscribe()
	defer sub.Close()
	st.Transition("mcs", "ticket", "quiesce")
	evs := sub.Poll(0)
	if len(evs) != 1 || sub.Dropped() != 0 {
		t.Fatalf("post-soak subscriber: %d events, %d dropped", len(evs), sub.Dropped())
	}
}
