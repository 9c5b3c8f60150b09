package scenario

import (
	"math"
	"testing"
)

// FuzzParseScenario asserts the .scn parser is total, mirroring the
// server parser's discipline (server.FuzzParseCommand): any input either
// yields a scenario that passes Validate — so the engine can trust every
// parsed field without re-checking bounds — or a *ParseError with a
// plausible line number; never a panic, never a half-validated scenario.
// Small accepted scenarios are also expanded into plans, so the fuzzer
// exercises the arrival math and key distributions against arbitrary
// parameter combinations.
func FuzzParseScenario(f *testing.F) {
	seeds := []string{
		"scenario t\nphase p\nduration 100ms\nrate 100\n",
		"scenario t\nseed 42\nkeys 64\nworkers 4\nglk 16 64\nphase p\nduration 50ms\nrate ramp 10 1000\ndist zipf 0.9\nhold 10us\nassert p99 <= 20ms\n",
		"scenario t\nkeys 8\nphase p\nduration 50ms\nrate 100\ndist hot 3 90\ntimeout 5ms\nblock 3\nassert timeouts == blocked\nassert grants == 0\n",
		"scenario t\nphase p\nduration 50ms\nrate 100\ndist rotate 4 80 32\nexpect transition ticket mutex\nmphint 64\n",
		"scenario t\nphase p\nduration 50ms\nrate 100\nassert grants == all\nassert starved == 0\nassert waitphases <= 10\n",
		"scenario t\nkeys 4\nphase p\nduration 50ms\nrate 100\nreads 80\nhold 10us\nassert rp99 <= 20ms\nassert wp99 <= 20ms\nphase q\nduration 50ms\nrate 100\nreads 100\nrwlock rwwritepref\n",
		"# comment\nscenario t # trailing\n\nphase p\n  duration 1ms\n  rate 1\n",
		"scenario t\nphase p\nduration 10m\nrate 1000000\n",
		"scenario t\nseed 18446744073709551615\nkeys 1048576\nworkers 1024\nphase p\nduration 1ms\nrate 1\n",
		"scenario t\nphase p\nduration 100ms\nrate 100\nassert p99 <= 1ms\nassert p99 >= 1ns\nassert p50 < 5s\nassert p95 > 1ns\n",
		"scenario \xff\nphase p\nduration 1ms\nrate 1\n",
		"scenario t\r\nphase p\r\nduration 1ms\r\nrate 1\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseScenario(data)
		if err != nil {
			pe, ok := err.(*ParseError)
			if !ok {
				t.Fatalf("error is %T, want *ParseError: %v", err, err)
			}
			if pe.Line < 0 || pe.Line > len(data)+1 {
				t.Fatalf("implausible error line %d for %d-byte input", pe.Line, len(data))
			}
			if s != nil {
				t.Fatalf("error %v returned alongside a scenario", err)
			}
			return
		}
		// Accepted scenarios are fully validated — the engine relies on it.
		if verr := s.Validate(); verr != nil {
			t.Fatalf("accepted scenario fails Validate: %v", verr)
		}
		// Small plans must build without panicking, with every op in
		// bounds. (Skip scenarios planning many ops: the fuzzer would
		// spend its budget materializing them.)
		total := 0.0
		for _, ph := range s.Phases {
			total += ph.Rate.Mean() * ph.Duration.Seconds()
		}
		if total > 10000 {
			return
		}
		p := BuildPlan(s, 1)
		for pi, pp := range p.Phases {
			n := 0
			for _, ops := range pp.PerWorker {
				n += len(ops)
				for _, op := range ops {
					if op.Key < 1 || op.Key > s.Keys {
						t.Fatalf("phase %d: planned key %d outside [1, %d]", pi, op.Key, s.Keys)
					}
					if op.At < 0 || op.At > pp.Phase.Duration {
						t.Fatalf("phase %d: planned arrival %v outside phase", pi, op.At)
					}
				}
			}
			if n != pp.N {
				t.Fatalf("phase %d: plan split %d ops across workers, want %d", pi, n, pp.N)
			}
			want := math.Round(pp.Phase.Rate.Mean() * pp.Phase.Duration.Seconds())
			if float64(pp.N) != want {
				t.Fatalf("phase %d: N %d, want %v", pi, pp.N, want)
			}
		}
	})
}
