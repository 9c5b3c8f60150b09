package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gls/glk"
	"gls/internal/figures"
	"gls/internal/harness"
	"gls/locks"
)

// The glsfair family measures admission fairness (throughput against read
// ratio is BenchmarkRWReadMostly's table): writer-stream and reader-flood
// mixes, run over a small ensemble of locks (a modelled system's lock set,
// not one hot key) with enough goroutines to push the process into the
// multiprogrammed regime, per side: how many operations each side completed
// and the worst single acquisition wait it suffered. A fair lock keeps both
// max-wait columns bounded; a one-sided lock shows one side's throughput
// bought with the other side's tail. The JSON it emits (BENCH_glsfair.json)
// is the fairness trajectory; EXPERIMENTS.md has the protocol.

// fairKeys is the lock-ensemble size: each goroutine round-robins its
// operations over this many independent locks, so the mix exercises a
// system's lock population rather than a single point of serialization.
const fairKeys = 4

// fairResult is one measured point.
type fairResult struct {
	Impl            string  `json:"impl"`
	Mix             string  `json:"mix"`
	Writers         int     `json:"writers"`
	Readers         int     `json:"readers"`
	WriterOpsPerSec float64 `json:"writer_ops_per_sec"`
	ReaderOpsPerSec float64 `json:"reader_ops_per_sec"`
	MaxWriterWaitNs int64   `json:"max_writer_wait_ns"`
	MaxReaderWaitNs int64   `json:"max_reader_wait_ns"`
}

// fairReport is the file-level JSON schema.
type fairReport struct {
	GeneratedBy string       `json:"generated_by"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	DurationMS  int64        `json:"duration_ms_per_point"`
	Reps        int          `json:"reps"`
	Keys        int          `json:"keys"`
	Results     []fairResult `json:"results"`
}

// rwLockish is the measurement contract; sync.RWMutex satisfies it too.
type rwLockish interface {
	Lock()
	Unlock()
	RLock()
	RUnlock()
}

// median reports the middle value of a (sorted in place) sample.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// fairImpls builds the competitors, fresh per point. The rwstriped row is
// the baseline with the documented reader-starvation hole; rwphasefair is
// fairness by construction; rwwritepref trades the reader tail for the
// writer's; glkrw is the adaptive policy that is supposed to find
// phase-fair (or, oversubscribed, blocking) admission on its own;
// sync.RWMutex is the runtime's reference point.
func fairImpls() []struct {
	name string
	mk   func() rwLockish
} {
	return []struct {
		name string
		mk   func() rwLockish
	}{
		{"rwstriped", func() rwLockish { return locks.NewRWStriped() }},
		{"rwphasefair", func() rwLockish { return locks.NewRWPhaseFair() }},
		{"rwwritepref", func() rwLockish { return locks.NewRWWritePref() }},
		{"glkrw", func() rwLockish { return glk.NewRW(nil) }},
		{"sync.RWMutex", func() rwLockish { return new(sync.RWMutex) }},
	}
}

// raiseMax raises *m to v if v is larger, retrying through concurrent
// updates.
func raiseMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// fairMeasure runs writers writer goroutines (streaming write sections
// back to back) and readers reader goroutines against a fairKeys-lock
// ensemble for d, timing every acquisition.
func fairMeasure(writers, readers int, d time.Duration, mk func() rwLockish) fairResult {
	ls := make([]rwLockish, fairKeys)
	for i := range ls {
		ls[i] = mk()
	}
	var wMax, rMax atomic.Int64
	res := harness.Drive(writers+readers, d, 0, func(w *harness.Worker) {
		if w.ID < writers {
			for i := w.ID; w.Next(); i++ {
				l := ls[i%fairKeys]
				t0 := time.Now()
				l.Lock()
				raiseMax(&wMax, time.Since(t0).Nanoseconds())
				l.Unlock()
			}
			return
		}
		for i := w.ID - writers; w.Next(); i++ {
			l := ls[i%fairKeys]
			t0 := time.Now()
			l.RLock()
			raiseMax(&rMax, time.Since(t0).Nanoseconds())
			l.RUnlock()
		}
	})
	var wOps, rOps uint64
	for id, n := range res.PerThread {
		if id < writers {
			wOps += n
		} else {
			rOps += n
		}
	}
	elapsed := res.Elapsed.Seconds()
	return fairResult{
		Writers:         writers,
		Readers:         readers,
		WriterOpsPerSec: float64(wOps) / elapsed,
		ReaderOpsPerSec: float64(rOps) / elapsed,
		MaxWriterWaitNs: wMax.Load(),
		MaxReaderWaitNs: rMax.Load(),
	}
}

// fairMixes is the sweep axis: a writer stream pressing on a smaller
// reader population, the mirror-image reader flood, and the balanced
// middle. Counts scale with GOMAXPROCS so the totals oversubscribe the
// machine — the multiprogrammed regime is part of the question.
func fairMixes() []struct {
	name             string
	writers, readers int
} {
	g := runtime.GOMAXPROCS(0)
	if g < 2 {
		g = 2
	}
	return []struct {
		name             string
		writers, readers int
	}{
		{"writerstream", 2 * g, g},
		{"balanced", g, g},
		{"readerflood", g, 4 * g},
	}
}

// runFair measures the full fairness family and writes the JSON report to
// path ("-" for stdout), with the table on progress.
func runFair(path string, progress io.Writer, s figures.Scale) error {
	report := fairReport{
		GeneratedBy: "glsbench -fair",
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		DurationMS:  s.Duration.Milliseconds(),
		Reps:        s.Reps,
		Keys:        fairKeys,
	}
	for _, mix := range fairMixes() {
		for _, impl := range fairImpls() {
			// Medians per column over reps (each rep re-measures the whole
			// point with fresh locks).
			wops := make([]float64, 0, s.Reps)
			rops := make([]float64, 0, s.Reps)
			wmax := make([]float64, 0, s.Reps)
			rmax := make([]float64, 0, s.Reps)
			for r := 0; r < s.Reps; r++ {
				res := fairMeasure(mix.writers, mix.readers, s.Duration, impl.mk)
				wops = append(wops, res.WriterOpsPerSec)
				rops = append(rops, res.ReaderOpsPerSec)
				wmax = append(wmax, float64(res.MaxWriterWaitNs))
				rmax = append(rmax, float64(res.MaxReaderWaitNs))
			}
			res := fairResult{
				Impl:            impl.name,
				Mix:             mix.name,
				Writers:         mix.writers,
				Readers:         mix.readers,
				WriterOpsPerSec: median(wops),
				ReaderOpsPerSec: median(rops),
				MaxWriterWaitNs: int64(median(wmax)),
				MaxReaderWaitNs: int64(median(rmax)),
			}
			report.Results = append(report.Results, res)
			fmt.Fprintf(progress, "%-13s %-12s w=%-3d r=%-3d  %10.0f w-ops/s %10.0f r-ops/s  max-wait w %-9s r %s\n",
				res.Impl, res.Mix, res.Writers, res.Readers,
				res.WriterOpsPerSec, res.ReaderOpsPerSec,
				time.Duration(res.MaxWriterWaitNs).Round(time.Microsecond),
				time.Duration(res.MaxReaderWaitNs).Round(time.Microsecond))
		}
	}
	return writeJSON(path, report)
}
