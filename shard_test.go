package gls

import (
	"strings"
	"sync"
	"testing"

	"gls/telemetry"
)

// keysInShard returns n distinct non-zero keys that all route to shard want,
// found by probing ShardOf from a seed.
func keysInShard(t *testing.T, s *Service, want int, n int, seed uint64) []uint64 {
	t.Helper()
	out := make([]uint64, 0, n)
	for k := seed; len(out) < n; k++ {
		if k == 0 {
			continue
		}
		if s.ShardOf(k) == want {
			out = append(out, k)
		}
		if k > seed+1<<20 {
			t.Fatalf("no %d keys found in shard %d near %#x", n, want, seed)
		}
	}
	return out
}

// TestShardRouting checks the shard front-end's basic contract: the default
// shard count is a power of two, routing is stable, every shard is
// reachable, and a single-shard service routes everything to shard 0.
func TestShardRouting(t *testing.T) {
	s := New(Options{NumShards: 8})
	defer s.Close()
	if s.NumShards() != 8 {
		t.Fatalf("NumShards() = %d, want 8", s.NumShards())
	}
	hit := make(map[int]bool)
	for k := uint64(1); k <= 4096; k++ {
		sh := s.ShardOf(k)
		if sh < 0 || sh >= 8 {
			t.Fatalf("ShardOf(%#x) = %d, out of range", k, sh)
		}
		if sh != s.ShardOf(k) {
			t.Fatalf("ShardOf(%#x) unstable", k)
		}
		hit[sh] = true
	}
	if len(hit) != 8 {
		t.Errorf("only %d of 8 shards reachable over 4096 sequential keys", len(hit))
	}

	one := New(Options{NumShards: 1})
	defer one.Close()
	for k := uint64(1); k <= 64; k++ {
		if got := one.ShardOf(k); got != 0 {
			t.Fatalf("single-shard ShardOf(%#x) = %d, want 0", k, got)
		}
	}

	def := New(Options{})
	defer def.Close()
	if n := def.NumShards(); n&(n-1) != 0 || n < 1 {
		t.Errorf("default NumShards %d is not a power of two", n)
	}
}

// TestOptionsValidateNumShards pins the power-of-two rule: Validate names
// it, New panics with it, and valid counts pass.
func TestOptionsValidateNumShards(t *testing.T) {
	for _, bad := range []int{-1, 3, 6, 12, 100} {
		err := (Options{NumShards: bad}).Validate()
		if err == nil {
			t.Fatalf("Validate(NumShards=%d) = nil, want error", bad)
		}
		if !strings.Contains(err.Error(), "power of two") {
			t.Errorf("Validate(NumShards=%d) error %q does not state the rule", bad, err)
		}
	}
	for _, ok := range []int{0, 1, 2, 8, 256} {
		if err := (Options{NumShards: ok}).Validate(); err != nil {
			t.Errorf("Validate(NumShards=%d) = %v, want nil", ok, err)
		}
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New(NumShards=3) did not panic")
		}
		if err, isErr := r.(error); !isErr || !strings.Contains(err.Error(), "power of two") {
			t.Fatalf("New(NumShards=3) panicked with %v, want the power-of-two error", r)
		}
	}()
	New(Options{NumShards: 3})
}

// TestFreeInvalidatesOnlyItsKey is the exact-counter claim the death mark
// makes: with NumShards=8, handles parked on keys in seven shards take ZERO
// cache misses after their warm-up while the eighth churns through Free
// concurrently, and the churn shard's books are exact; a Free of a
// neighbour key in a handle's own shard leaves it alone too, and a Free of
// the handle's own key costs it exactly one re-resolve, onto the new
// incarnation — so the counter would have caught a violation.
func TestFreeInvalidatesOnlyItsKey(t *testing.T) {
	const numShards, churnShard, rounds = 8, 0, 50
	s := New(Options{NumShards: numShards})
	defer s.Close()
	churn := keysInShard(t, s, churnShard, 64, 1<<20)

	// One worker per other shard, warmed (exactly one miss: the first
	// resolution) behind a barrier so no worker can miss the churn.
	misses := make([]uint64, numShards)
	stop := make(chan struct{})
	var warmed, wg sync.WaitGroup
	for sh := 0; sh < numShards; sh++ {
		if sh == churnShard {
			continue
		}
		hot := keysInShard(t, s, sh, 1, 1)[0]
		warmed.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := s.NewHandle()
			h.Lock(hot)
			h.Unlock(hot)
			warmed.Done()
			for {
				select {
				case <-stop:
					misses[sh] = h.CacheMisses()
					return
				default:
				}
				h.Lock(hot)
				h.Unlock(hot)
			}
		}()
	}
	warmed.Wait()
	for round := 0; round < rounds; round++ {
		for _, k := range churn {
			s.Lock(k)
			s.Unlock(k)
			s.Free(k)
		}
	}
	close(stop)
	wg.Wait()
	for sh, m := range misses {
		if sh != churnShard && m != 1 {
			t.Errorf("shard %d handle: %d cache misses under churn of other keys, want exactly 1", sh, m)
		}
	}
	for _, st := range s.ShardStats() {
		want := uint64(0)
		if st.Shard == churnShard {
			want = uint64(rounds * len(churn))
		}
		if st.Frees != want {
			t.Errorf("shard %d recorded %d frees, want %d", st.Shard, st.Frees, want)
		}
	}

	// A Free of a neighbour key in the handle's own shard leaves it alone.
	ctrl := s.NewHandle()
	ctrl.Lock(churn[0])
	ctrl.Unlock(churn[0])
	s.Lock(churn[1])
	s.Unlock(churn[1])
	s.Free(churn[1])
	ctrl.Lock(churn[0])
	ctrl.Unlock(churn[0])
	if got := ctrl.CacheMisses(); got != 1 {
		t.Errorf("Free of a same-shard neighbour: %d misses, want 1 (the warm-up alone)", got)
	}

	// Control: a Free of the handle's own key costs exactly one re-resolve,
	// and the handle then locks the key's new incarnation.
	old := ctrl.last
	s.Free(churn[0])
	ctrl.Lock(churn[0])
	ctrl.Unlock(churn[0])
	ctrl.Lock(churn[0])
	ctrl.Unlock(churn[0])
	if got := ctrl.CacheMisses(); got != 2 {
		t.Errorf("Free of the handle's own key: %d misses, want 2 (warm-up + one re-resolve)", got)
	}
	if ctrl.last == old || ctrl.last != s.getEntry(churn[0]) {
		t.Error("after the Free the handle still locks the freed lock object, not the mapped one")
	}
}

// TestShardStats checks the per-shard occupancy report: creates and frees
// land in the right shard, and Locks sums match.
func TestShardStats(t *testing.T) {
	s := New(Options{NumShards: 4})
	defer s.Close()
	a := keysInShard(t, s, 0, 3, 1)
	b := keysInShard(t, s, 3, 2, 1)
	for _, k := range append(append([]uint64{}, a...), b...) {
		s.InitLock(k)
	}
	s.Free(a[0])
	st := s.ShardStats()
	if len(st) != 4 {
		t.Fatalf("ShardStats returned %d shards, want 4", len(st))
	}
	if st[0].Creates != 3 || st[0].Frees != 1 || st[0].Locks != 2 {
		t.Errorf("shard 0 = %+v, want creates 3, frees 1, locks 2", st[0])
	}
	if st[3].Creates != 2 || st[3].Frees != 0 || st[3].Locks != 2 {
		t.Errorf("shard 3 = %+v, want creates 2, frees 0, locks 2", st[3])
	}
	if s.Locks() != 4 {
		t.Errorf("Locks() = %d, want 4", s.Locks())
	}
}

// TestShardedTelemetryRollup drives a sharded service with a registry and
// checks the snapshot's shards block end to end: live locks per shard,
// retired accounting after Free, and the shard column on each lock row.
func TestShardedTelemetryRollup(t *testing.T) {
	reg := telemetry.New(telemetry.Options{})
	s := New(Options{NumShards: 4, Telemetry: reg})
	defer s.Close()

	a := keysInShard(t, s, 1, 2, 1)
	b := keysInShard(t, s, 2, 1, 1)[0]
	for _, k := range a {
		s.Lock(k)
		s.Unlock(k)
	}
	s.Lock(b)
	s.Unlock(b)

	snap := reg.Snapshot()
	if len(snap.Shards) == 0 {
		t.Fatal("sharded service produced a snapshot with no shards block")
	}
	byShard := map[uint32]telemetry.ShardSnapshot{}
	for _, sh := range snap.Shards {
		byShard[sh.Shard] = sh
	}
	if got := byShard[1]; got.Locks != 2 || got.Acquisitions != 2 {
		t.Errorf("shard 1 rollup = %+v, want 2 locks, 2 acquisitions", got)
	}
	if got := byShard[2]; got.Locks != 1 || got.Acquisitions != 1 {
		t.Errorf("shard 2 rollup = %+v, want 1 lock, 1 acquisition", got)
	}
	for _, l := range snap.Locks {
		if want := uint32(s.ShardOf(l.Key)); l.Shard != want {
			t.Errorf("lock %#x snapshot shard %d, want %d", l.Key, l.Shard, want)
		}
	}

	// Free one key in shard 1: its acquisitions must stay in the shard's
	// total via the retired side, keeping the sum monotonic.
	s.Free(a[0])
	snap2 := reg.Snapshot()
	for _, sh := range snap2.Shards {
		if sh.Shard != 1 {
			continue
		}
		if sh.Locks != 1 || sh.Retired != 1 || sh.Acquisitions != 2 {
			t.Errorf("after Free, shard 1 = %+v, want 1 live, 1 retired, 2 acquisitions", sh)
		}
	}

	// The text report carries the per-shard lines.
	var buf strings.Builder
	if err := snap2.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "[glstat] shard 1:") {
		t.Errorf("WriteText missing shard lines:\n%s", buf.String())
	}

	// An unsharded service's snapshot must NOT grow a shards block.
	reg2 := telemetry.New(telemetry.Options{})
	s2 := New(Options{NumShards: 1, Telemetry: reg2})
	defer s2.Close()
	s2.Lock(7)
	s2.Unlock(7)
	if snap := reg2.Snapshot(); len(snap.Shards) != 0 {
		t.Errorf("unsharded snapshot has a shards block: %+v", snap.Shards)
	}
}
