//go:build clhtseam

package clht

import "testing"

// TestGetSeesNoReusedSlot runs, between one look-up's loads, the schedule
// that defeats the key/value/key re-check: key A's slot is emptied and
// taken by key B after Get has matched A's key there, so the value it
// loads is B's; then B is deleted and A re-inserted into the same slot
// before Get re-reads the key, which matches again. A look-up must never
// return B's value, and since A is back in the table when it ends, it must
// return A's. head runs
// the schedule on the head bucket's select, overflow on the walk of an
// overflow bucket. Without the bucket version both return B's value, on
// every run.
func TestGetSeesNoReusedSlot(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ahead int // colliding keys inserted before A: 0 puts A in the head bucket, 3 in its overflow
	}{{"head", 0}, {"overflow", slotsPerBucket}} {
		t.Run(tc.name, func(t *testing.T) {
			tb := New[uint64](0)
			keys := collide(tb, tc.ahead+2)
			a, b := keys[tc.ahead], keys[tc.ahead+1]
			insert(tb, keys[:tc.ahead+1]...)
			steps := []struct {
				at seamPoint
				do func()
			}{
				{seamKeys, func() { tb.Delete(a); insert(tb, b) }},
				{seamValue, func() { tb.Delete(b); insert(tb, a) }},
			}
			ran := 0
			var hook func(seamPoint)
			hook = func(p seamPoint) {
				if p != steps[ran].at {
					return
				}
				seamHook = nil // the writers look up too
				steps[ran].do()
				if ran++; ran < len(steps) {
					seamHook = hook
				}
			}
			seamHook = hook
			v := tb.Get(a)
			seamHook = nil
			if ran != len(steps) {
				t.Fatalf("the look-up passed %d of the schedule's %d seams", ran, len(steps))
			}
			if v != nil && *v != a {
				t.Fatalf("Get(%d) returned key %d's value across a reused slot", a, *v)
			}
			if v == nil {
				t.Fatalf("Get(%d) = nil, but the key was in the table before and after", a)
			}
		})
	}
}
