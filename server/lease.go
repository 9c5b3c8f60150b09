package server

import (
	"container/heap"
	"sync"
	"time"
)

// Leases. Every grant carries a TTL; the expiry sweeper — one goroutine
// per server, a bounded-minimum interval ticker (see
// Options.SweepInterval) — releases leases whose holders went quiet. The
// heap holds exactly the held grants: a grant knows its heap index, so a
// renew moves its record and a release removes it. The grant registered in the session stays the
// authority — the sweeper revalidates a popped grant (still registered,
// actually past expiry) under the session mutex before releasing, which
// settles its races with a concurrent unlock or renew. Session death clamps
// every held lease to "now" and kicks the sweeper, so disconnect-release
// and TTL-release are one code path.

// leaseHeap is a min-heap of held grants by expiry time.
type leaseHeap []*grant

func (h leaseHeap) Len() int           { return len(h) }
func (h leaseHeap) Less(i, j int) bool { return h[i].expiry.Before(h[j].expiry) }
func (h leaseHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *leaseHeap) Push(x any) {
	g := x.(*grant)
	g.idx = len(*h)
	*h = append(*h, g)
}
func (h *leaseHeap) Pop() any {
	old := *h
	n := len(old)
	g := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	g.idx = -1
	return g
}

// leaseQueue is the sweeper's shared state: the heap plus a kick channel
// for immediate sweeps (session death, tests).
//
// Lock order: leaseQueue.mu is a leaf below session.mu (schedule runs with
// the owning session's mutex held), and the sweeper never holds
// leaseQueue.mu while taking a session mutex — due grants are drained into
// a local slice first (see Server.sweepDue). A grant's expiry is written
// under both mutexes, so either one covers a read; idx is leaseQueue.mu's.
type leaseQueue struct {
	mu   sync.Mutex
	h    leaseHeap
	kick chan struct{}
}

func newLeaseQueue() *leaseQueue {
	return &leaseQueue{kick: make(chan struct{}, 1)}
}

// schedule sets g's expiry and places its record: pushed for a new grant
// (or one a renew overtook just after the sweeper popped it), moved for a
// renew or a teardown clamp. The caller holds g.sess.mu.
func (q *leaseQueue) schedule(g *grant, at time.Time) {
	q.mu.Lock()
	g.expiry = at
	if g.idx < 0 {
		heap.Push(&q.h, g)
	} else {
		heap.Fix(&q.h, g.idx)
	}
	q.mu.Unlock()
}

// remove drops a released grant's record, if the sweeper has not already
// popped it.
func (q *leaseQueue) remove(g *grant) {
	q.mu.Lock()
	if g.idx >= 0 {
		heap.Remove(&q.h, g.idx)
	}
	q.mu.Unlock()
}

// wake nudges the sweeper to run now (idempotent while a nudge is pending).
func (q *leaseQueue) wake() {
	select {
	case q.kick <- struct{}{}:
	default:
	}
}

// due pops every grant with expiry <= now into a fresh slice, leaving later
// ones queued. Runs under q.mu only — the caller validates against session
// state afterwards, without this mutex held.
func (q *leaseQueue) due(now time.Time) []*grant {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*grant
	for len(q.h) > 0 && !q.h[0].expiry.After(now) {
		out = append(out, heap.Pop(&q.h).(*grant))
	}
	return out
}

// size reports queued records — the held leases — for stats.
func (q *leaseQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.h)
}
