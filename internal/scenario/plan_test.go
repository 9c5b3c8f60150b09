package scenario

import (
	"bytes"
	"math"
	"testing"
	"time"

	"gls/internal/xrand"
)

// mustParse parses or fails the test.
func mustParse(t *testing.T, in string) *Scenario {
	t.Helper()
	s, err := ParseScenario([]byte(in))
	if err != nil {
		t.Fatalf("ParseScenario: %v", err)
	}
	return s
}

func TestPlanOpCounts(t *testing.T) {
	s := mustParse(t, `scenario t
keys 16
workers 3
phase a
duration 200ms
rate 1000
phase b
duration 100ms
rate ramp 100 300
`)
	p := BuildPlan(s, 0)
	if p.Seed != DefaultSeed {
		t.Fatalf("seed not resolved from scenario default: %d", p.Seed)
	}
	// Phase a: 1000/s × 0.2s = 200 ops; phase b: mean 200/s × 0.1s = 20.
	if p.Phases[0].N != 200 || p.Phases[1].N != 20 {
		t.Fatalf("op counts: got %d, %d; want 200, 20", p.Phases[0].N, p.Phases[1].N)
	}
	for pi, pp := range p.Phases {
		total := 0
		for w, ops := range pp.PerWorker {
			total += len(ops)
			for _, op := range ops {
				if op.Worker != w {
					t.Fatalf("phase %d: op %d filed under worker %d", pi, op.Index, w)
				}
				if op.Index%s.Workers != w {
					t.Fatalf("phase %d: worker %d owns index %d", pi, w, op.Index)
				}
				if op.Key < 1 || op.Key > s.Keys {
					t.Fatalf("phase %d: key %d outside [1, %d]", pi, op.Key, s.Keys)
				}
				if op.At < 0 || op.At > pp.Phase.Duration {
					t.Fatalf("phase %d: op %d scheduled at %v outside phase", pi, op.Index, op.At)
				}
			}
		}
		if total != pp.N {
			t.Fatalf("phase %d: %d ops across workers, want %d", pi, total, pp.N)
		}
	}
}

func TestPlanArrivalsMonotonic(t *testing.T) {
	s := mustParse(t, `scenario t
workers 1
phase up
duration 100ms
rate ramp 100 1000
phase down
duration 100ms
rate ramp 1000 100
phase flat
duration 100ms
rate 500
`)
	p := BuildPlan(s, 0)
	for pi, pp := range p.Phases {
		ops := pp.PerWorker[0]
		for i := 1; i < len(ops); i++ {
			if ops[i].At < ops[i-1].At {
				t.Fatalf("phase %d: arrival %d at %v before %d at %v", pi, i, ops[i].At, i-1, ops[i-1].At)
			}
		}
	}
	// An accelerating ramp front-loads less than it back-loads: the first
	// half of a 100→1000 ramp carries fewer ops than the second half.
	up := p.Phases[0]
	half := up.Phase.Duration / 2
	first := 0
	for _, op := range up.PerWorker[0] {
		if op.At < half {
			first++
		}
	}
	if first*2 >= up.N {
		t.Fatalf("rising ramp placed %d of %d ops in the first half", first, up.N)
	}
	// And the mirror ramp front-loads more.
	down := p.Phases[1]
	first = 0
	for _, op := range down.PerWorker[0] {
		if op.At < half {
			first++
		}
	}
	if first*2 <= down.N {
		t.Fatalf("falling ramp placed only %d of %d ops in the first half", first, down.N)
	}
}

func TestPlanConstantRateSpacing(t *testing.T) {
	s := mustParse(t, "scenario t\nworkers 1\nphase p\nduration 100ms\nrate 1000\n")
	p := BuildPlan(s, 0)
	ops := p.Phases[0].PerWorker[0]
	for i, op := range ops {
		want := time.Duration(float64(i) / 1000 * float64(time.Second))
		if d := op.At - want; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("op %d at %v, want %v", i, op.At, want)
		}
	}
}

func TestPlanHotDistribution(t *testing.T) {
	s := mustParse(t, `scenario t
keys 64
workers 4
phase p
duration 1s
rate 4000
dist hot 7 90
timeout 1ms
block 7
`)
	pp := BuildPlan(s, 0).Phases[0]
	hot := uint64(0)
	for _, ops := range pp.PerWorker {
		for _, op := range ops {
			if op.Key == 7 {
				hot++
			}
		}
	}
	if hot != pp.Blocked {
		t.Fatalf("Blocked %d != counted hot ops %d", pp.Blocked, hot)
	}
	frac := float64(hot) / float64(pp.N)
	if math.Abs(frac-0.90) > 0.03 {
		t.Fatalf("hot fraction %.3f, want ~0.90", frac)
	}
}

func TestPlanHotAllOpsBlocked(t *testing.T) {
	// Pct 100 must be exact, not probabilistic: the blocker golden
	// scenario's `timeouts == blocked == all` lane depends on it.
	s := mustParse(t, `scenario t
keys 8
workers 4
phase p
duration 500ms
rate 1000
dist hot 3 100
timeout 1ms
block 3
`)
	pp := BuildPlan(s, 0).Phases[0]
	if pp.Blocked != uint64(pp.N) {
		t.Fatalf("pct-100 hot: Blocked %d != N %d", pp.Blocked, pp.N)
	}
}

func TestPlanRotateDeterministicTenants(t *testing.T) {
	s := mustParse(t, `scenario t
keys 80
workers 2
phase p
duration 200ms
rate 2000
dist rotate 8 100 50
`)
	pp := BuildPlan(s, 0).Phases[0]
	slice := s.Keys / 8
	for _, ops := range pp.PerWorker {
		for _, op := range ops {
			tenant := (uint64(op.Index) / 50) % 8
			lo, hi := tenant*slice+1, (tenant+1)*slice
			if op.Key < lo || op.Key > hi {
				t.Fatalf("op %d (tenant %d): key %d outside [%d, %d]", op.Index, tenant, op.Key, lo, hi)
			}
		}
	}
}

// TestReplayDeterminism is the satellite property test: the same seed and
// scenario produce byte-identical replay logs across two independent
// plan builds, and a different seed diverges.
func TestReplayDeterminism(t *testing.T) {
	in := `scenario det
seed 12345
keys 64
workers 4
phase a
duration 200ms
rate ramp 500 1500
dist zipf 0.9
phase b
duration 150ms
rate 1000
dist hot 5 80
timeout 2ms
phase c
duration 100ms
rate 800
dist rotate 4 70 32
phase d
duration 100ms
rate 800
reads 60
rwlock rwphasefair
`
	log := func(seed uint64) []byte {
		var buf bytes.Buffer
		if err := BuildPlan(mustParse(t, in), seed).WriteReplay(&buf); err != nil {
			t.Fatalf("WriteReplay: %v", err)
		}
		return buf.Bytes()
	}
	a, b := log(0), log(0)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed diverged:\nrun1 %d bytes\nrun2 %d bytes", len(a), len(b))
	}
	if len(a) < 1000 {
		t.Fatalf("replay log suspiciously small (%d bytes) — is the plan empty?", len(a))
	}
	if reads := bytes.Count(a, []byte(" read\n")); reads < 20 || reads > 60 {
		t.Fatalf("phase d marks %d of its 80 ops read, want about 48", reads)
	}
	c := log(54321)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical replay logs")
	}
	// The divergence must be confined to op lines and the seed header:
	// same op counts, same schedule offsets, different keys.
	pa, pc := BuildPlan(mustParse(t, in), 0), BuildPlan(mustParse(t, in), 54321)
	for i := range pa.Phases {
		if pa.Phases[i].N != pc.Phases[i].N {
			t.Fatalf("phase %d: op count changed with seed (%d vs %d)", i, pa.Phases[i].N, pc.Phases[i].N)
		}
		for w := range pa.Phases[i].PerWorker {
			for j := range pa.Phases[i].PerWorker[w] {
				oa, oc := pa.Phases[i].PerWorker[w][j], pc.Phases[i].PerWorker[w][j]
				if oa.At != oc.At {
					t.Fatalf("phase %d op %d: schedule moved with seed (%v vs %v)", i, oa.Index, oa.At, oc.At)
				}
			}
		}
	}
}

func TestZipfCDFMatchesXrand(t *testing.T) {
	// A zipf phase samples xrand.Zipf's table, each worker with its own
	// stream: over the paper's zipf(0.9) on 8 keys the planned keys fall
	// as the table says (the two busiest locks serve ~34% and ~18%).
	s := mustParse(t, "scenario t\nkeys 8\nworkers 3\nphase p\nduration 5s\nrate 20000\ndist zipf 0.9\n")
	pp := BuildPlan(s, 7).Phases[0]
	counts := make([]int, s.Keys)
	for _, ops := range pp.PerWorker {
		for _, op := range ops {
			counts[op.Key-1]++
		}
	}
	z := xrand.NewZipf(int(s.Keys), 0.9)
	for i, n := range counts {
		if got, want := float64(n)/float64(pp.N), z.Prob(i); math.Abs(got-want) > 0.01 {
			t.Errorf("key %d: drawn %.3f of the time, want %.3f", i+1, got, want)
		}
	}
}
