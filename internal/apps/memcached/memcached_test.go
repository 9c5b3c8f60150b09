package memcached

import (
	"sync"
	"testing"
	"time"

	"gls"
	"gls/glk"
	"gls/internal/apps/appsync"
	"gls/internal/sysmon"
	"gls/locks"
)

func quietGLK() *glk.Config {
	return &glk.Config{Monitor: sysmon.New(sysmon.Options{DisableProbes: true})}
}

func newCache(t *testing.T, p appsync.Provider) *Cache {
	t.Helper()
	return New(Config{Provider: p, Buckets: 1 << 8, CapacityItems: 1 << 10})
}

func TestSetGet(t *testing.T) {
	c := newCache(t, appsync.NewRaw(locks.Mutex))
	if got := c.Get("missing"); got != nil {
		t.Fatal("Get on empty cache returned a value")
	}
	c.Set("a", []byte("1"))
	if got := string(c.Get("a")); got != "1" {
		t.Fatalf("Get(a) = %q", got)
	}
	c.Set("a", []byte("2")) // overwrite
	if got := string(c.Get("a")); got != "2" {
		t.Fatalf("Get(a) after overwrite = %q", got)
	}
	if c.nitems != 1 {
		t.Fatalf("items = %d, want 1", c.nitems)
	}
	st := c.stats
	if st.GetHits != 2 || st.GetMisses != 1 || st.CmdSet != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEviction(t *testing.T) {
	p := appsync.NewRaw(locks.Ticket)
	c := New(Config{Provider: p, Buckets: 64, CapacityItems: 8})
	for i := 0; i < 20; i++ {
		c.Set("k"+string(rune('a'+i)), []byte{byte(i)})
	}
	if c.nitems > 8 {
		t.Fatalf("items = %d, capacity 8 not enforced", c.nitems)
	}
	if c.stats.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	// Most-recent key survives; check it is still readable.
	if got := c.Get("k" + string(rune('a'+19))); got == nil {
		t.Fatal("most recent key evicted")
	}
}

func TestLRUOrdering(t *testing.T) {
	p := appsync.NewRaw(locks.Ticket)
	c := New(Config{Provider: p, Buckets: 64, CapacityItems: 2})
	c.Set("x", []byte("1"))
	c.Set("y", []byte("2"))
	c.Get("x")              // touch x: y becomes LRU tail
	c.Set("z", []byte("3")) // evicts y
	if c.Get("y") != nil {
		t.Fatal("LRU evicted the wrong item (y should be gone)")
	}
	if c.Get("x") == nil || c.Get("z") == nil {
		t.Fatal("recently used items evicted")
	}
}

func TestConcurrentMixedProviders(t *testing.T) {
	providers := map[string]appsync.Provider{
		"mutex":  appsync.NewRaw(locks.Mutex),
		"ticket": appsync.NewRaw(locks.Ticket),
		"mcs":    appsync.NewRaw(locks.MCS),
		"glk":    appsync.NewGLK(quietGLK()),
	}
	for name, p := range providers {
		p := p
		t.Run(name, func(t *testing.T) {
			c := newCache(t, p)
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					key := "shared"
					for i := 0; i < 1500; i++ {
						if i%3 == 0 {
							c.Set(key, []byte{byte(id)})
						} else {
							c.Get(key)
						}
					}
				}(g)
			}
			wg.Wait()
			st := c.stats
			if st.CmdSet != 4*500 {
				t.Fatalf("CmdSet = %d, want %d", st.CmdSet, 4*500)
			}
			if st.GetHits+st.GetMisses != 4*1000 {
				t.Fatalf("gets = %d, want %d", st.GetHits+st.GetMisses, 4*1000)
			}
		})
	}
}

func TestWorkloadSmoke(t *testing.T) {
	c := newCache(t, appsync.NewRaw(locks.Mutex))
	ops, elapsed := RunWorkload(c, WorkloadConfig{
		GetRatio: 0.9, Keys: 512, Threads: 2,
		Duration: 30 * time.Millisecond, Seed: 1,
	})
	if ops == 0 || elapsed <= 0 {
		t.Fatalf("workload did nothing: ops=%d elapsed=%v", ops, elapsed)
	}
	if c.stats.GetHits == 0 {
		t.Fatal("warmed cache recorded no hits at 90% GET")
	}
}

// TestBuggyModeDetectedByGLSDebug reproduces the paper's §5.1 session: run
// the buggy Memcached over GLS in debug mode and observe both warnings.
func TestBuggyModeDetectedByGLSDebug(t *testing.T) {
	var mu sync.Mutex
	var issues []gls.Issue
	svc := gls.New(gls.Options{
		Debug:      true,
		StrictInit: true,
		GLK:        quietGLK(),
		OnIssue: func(i gls.Issue) {
			mu.Lock()
			issues = append(issues, i)
			mu.Unlock()
		},
	})
	defer svc.Close()
	p := appsync.NewGLS(svc, nil)

	c := New(Config{Provider: p, Buckets: 64, CapacityItems: 64, Buggy: true})
	// Exercise the buggy stats_lock (first bug fires on first stats access).
	c.Set("k", []byte("v"))
	c.Get("k")

	mu.Lock()
	defer mu.Unlock()
	var uninit, free bool
	for _, i := range issues {
		switch i.Kind {
		case gls.IssueUninitializedLock:
			if i.Key == p.Key(RoleStats) {
				uninit = true
			}
		case gls.IssueUnlockFree:
			if i.Key == p.Key(RoleRebalance) {
				free = true
			}
		}
	}
	if !uninit {
		t.Error("uninitialized stats_lock not detected")
	}
	if !free {
		t.Error("spurious slabs_rebalance_lock unlock not detected")
	}
}

// TestFixedModeCleanUnderGLSDebug: after the paper's fixes, no issues.
func TestFixedModeCleanUnderGLSDebug(t *testing.T) {
	var mu sync.Mutex
	var issues []gls.Issue
	svc := gls.New(gls.Options{
		Debug:      true,
		StrictInit: true,
		GLK:        quietGLK(),
		OnIssue: func(i gls.Issue) {
			mu.Lock()
			issues = append(issues, i)
			mu.Unlock()
		},
	})
	defer svc.Close()
	p := appsync.NewGLS(svc, nil)
	c := New(Config{Provider: p, Buckets: 64, CapacityItems: 64})
	c.Set("k", []byte("v"))
	c.Get("k")
	rebalance := p.GetLock(RoleRebalance)
	rebalance.Lock()
	rebalance.Unlock()
	mu.Lock()
	defer mu.Unlock()
	if len(issues) != 0 {
		t.Fatalf("fixed memcached produced issues: %v", issues)
	}
}

// TestBuggyModeHarmlessUnderMutex: the paper observes the default MUTEX
// tolerates both bugs ("these issues do not manifest with MUTEX").
func TestBuggyModeHarmlessUnderMutex(t *testing.T) {
	p := appsync.NewRaw(locks.Mutex)
	c := New(Config{Provider: p, Buckets: 64, CapacityItems: 64, Buggy: true})
	c.Set("k", []byte("v"))
	if got := string(c.Get("k")); got != "v" {
		t.Fatalf("Get = %q", got)
	}
	// The lock New spuriously unlocked must still lock and unlock, not hang.
	rebalance := p.GetLock(RoleRebalance)
	rebalance.Lock()
	rebalance.Unlock()
}

// TestGLSSpecializedProvider drives the cache through per-role explicit
// algorithms (the paper's GLS SPECIALIZED: MCS for contended global locks,
// TICKET for the rest).
func TestGLSSpecializedProvider(t *testing.T) {
	svc := gls.New(gls.Options{GLK: quietGLK()})
	defer svc.Close()
	p := appsync.NewGLS(svc, func(role string) locks.Algorithm {
		switch role {
		case RoleStats, RoleCache, RoleSlabs:
			return locks.MCS
		default:
			return locks.Ticket
		}
	})
	c := newCache(t, p)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Set("s", []byte("x"))
				c.Get("s")
			}
		}()
	}
	wg.Wait()
	if st := c.stats; st.CmdSet != 4000 {
		t.Fatalf("CmdSet = %d, want 4000", st.CmdSet)
	}
}
