package litesql

import (
	"sync"
	"testing"
	"time"

	"gls/glk"
	"gls/internal/apps/appsync"
	"gls/internal/sysmon"
	"gls/locks"
)

func smallDB(p appsync.Provider) *DB {
	return New(Config{Provider: p, Warehouses: 10})
}

func TestTransactionsCommit(t *testing.T) {
	p := appsync.NewRaw(locks.Mutex)
	db := smallDB(p)
	c := db.NewConn(p, 0, 1)
	c.NewOrder()
	c.Payment()
	c.OrderStatus()
	if db.Commits() != 3 {
		t.Fatalf("Commits = %d, want 3", db.Commits())
	}
	if !db.CheckConsistency() {
		t.Fatal("consistency violated after serial transactions")
	}
}

func TestConsistencyUnderConcurrency(t *testing.T) {
	for _, algo := range []locks.Algorithm{locks.Mutex, locks.Ticket, locks.MCS} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			p := appsync.NewRaw(algo)
			db := smallDB(p)
			var wg sync.WaitGroup
			for g := 0; g < 6; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					c := db.NewConn(p, id, 7)
					for i := 0; i < 300; i++ {
						switch i % 3 {
						case 0:
							c.NewOrder()
						case 1:
							c.Payment()
						default:
							c.OrderStatus()
						}
					}
				}(g)
			}
			wg.Wait()
			if db.Commits() != 6*300 {
				t.Fatalf("Commits = %d, want %d", db.Commits(), 6*300)
			}
			if !db.CheckConsistency() {
				t.Fatal("YTD/balance invariant violated: writes raced")
			}
		})
	}
}

func TestConsistencyUnderGLK(t *testing.T) {
	mon := sysmon.New(sysmon.Options{DisableProbes: true})
	p := appsync.NewGLK(&glk.Config{Monitor: mon, SamplePeriod: 16, AdaptPeriod: 64})
	db := smallDB(p)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := db.NewConn(p, id, 11)
			for i := 0; i < 400; i++ {
				if i%2 == 0 {
					c.Payment()
				} else {
					c.OrderStatus()
				}
			}
		}(g)
	}
	wg.Wait()
	if !db.CheckConsistency() {
		t.Fatal("consistency violated under adaptive locks")
	}
}

func TestWorkloadSmoke(t *testing.T) {
	p := appsync.NewRaw(locks.Mutex)
	db := smallDB(p)
	commits, elapsed := RunWorkload(db, p, WorkloadConfig{
		Connections: 4, Duration: 30 * time.Millisecond, Seed: 5,
	})
	if commits == 0 || elapsed <= 0 {
		t.Fatal("workload committed nothing")
	}
	if !db.CheckConsistency() {
		t.Fatal("workload broke consistency")
	}
}

func TestManyConnections(t *testing.T) {
	// 64 connections (the paper's largest configuration) must still commit
	// and stay consistent — this is the multiprogrammed regime.
	p := appsync.NewRaw(locks.Mutex)
	db := smallDB(p)
	commits, _ := RunWorkload(db, p, WorkloadConfig{
		Connections: 64, Duration: 50 * time.Millisecond, Seed: 6,
	})
	if commits == 0 {
		t.Fatal("64-connection workload committed nothing")
	}
	if !db.CheckConsistency() {
		t.Fatal("consistency violated at 64 connections")
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 7: "7", 42: "42", 100: "100"}
	for n, want := range cases {
		if got := itoa(n); got != want {
			t.Errorf("itoa(%d) = %q, want %q", n, got, want)
		}
	}
}
