//go:build unix

package client_test

import (
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gls/client"
	"gls/server"
)

// BenchmarkWireSharedConn is BenchmarkWireRoundTrip with eight goroutines
// sharing each Conn, each goroutine on keys of its own: they queue on their
// Conn's request lock for their round trips. conns=1 leaves one of two CPUs
// idle, as one round trip at a time cannot fill both; conns=2 is glsmark's
// wire_spread shape, two Conns of eight, which keeps both busy. The
// goroutine count is 8 per Conn at GOMAXPROCS 1, 2, 4 or 8, the next
// multiple of GOMAXPROCS otherwise. cpu-us/op is the process's CPU time per
// op, both ends counted, so CPU that waiters burn shows beside ns/op.
func BenchmarkWireSharedConn(b *testing.B) {
	for _, conns := range []int{1, 2} {
		b.Run("conns="+strconv.Itoa(conns), func(b *testing.B) { benchSharedConns(b, conns) })
	}
}

func benchSharedConns(b *testing.B, conns int) {
	srv, err := server.New(server.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	cs := make([]*client.Conn, conns)
	for i := range cs {
		if cs[i], err = client.Dial(ln.Addr().String()); err != nil {
			b.Fatal(err)
		}
		defer cs[i].Close()
	}
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((8*conns + procs - 1) / procs)
	var next atomic.Uint64
	b.ReportAllocs()
	before := cpuTime(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := next.Add(1)
		c, base := cs[id%uint64(conns)], id*1000
		for i := uint64(0); pb.Next(); i++ {
			key := base + i%128
			if _, err := c.TryLock(key, 10*time.Second); err != nil {
				b.Error(err)
				return
			}
			if err := c.Unlock(key); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(cpuTime(b)-before)/float64(time.Microsecond)/float64(b.N), "cpu-us/op")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
