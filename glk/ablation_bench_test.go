package glk

import (
	"strconv"
	"testing"

	"gls/internal/sysmon"
)

// The ablation benchmarks isolate design choices DESIGN.md calls out. The
// queue-source, hysteresis-band and EMA-weight sweeps were measured and
// removed with the knobs they swept (EXPERIMENTS.md, "Measured and
// removed"); what is left is the cost of the adaptation period.

func ablationMonitor(b *testing.B) *sysmon.Monitor {
	b.Helper()
	m := sysmon.New(sysmon.Options{DisableProbes: true})
	m.Start()
	b.Cleanup(m.Stop)
	return m
}

// BenchmarkAblationAdaptationPeriod isolates the cost of frequent
// adaptation on an uncontended lock (the paper's Figure 6 left panel, as a
// two-point bench).
func BenchmarkAblationAdaptationPeriod(b *testing.B) {
	mon := ablationMonitor(b)
	for _, period := range []uint64{16, 4096} {
		b.Run("period="+strconv.FormatUint(period, 10), func(b *testing.B) {
			sample := period / 32
			if sample == 0 {
				sample = 1
			}
			cfg := &Config{Monitor: mon, SamplePeriod: sample, AdaptPeriod: period}
			l := New(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Lock()
				l.Unlock()
			}
		})
	}
}
