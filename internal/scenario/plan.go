package scenario

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"time"

	"gls/internal/xrand"
)

// The plan is where glscn's determinism lives. Before the first op is
// issued, BuildPlan expands a scenario into every acquisition the run
// will perform — which worker, which key, at what offset from phase
// start — as a pure function of (scenario, seed). Execution then only
// *times* the plan; it never draws randomness. Two runs with the same
// seed therefore replay the identical op sequence regardless of
// scheduling, and the replay log (WriteReplay) is byte-identical by
// construction — the property TestReplayDeterminism pins and the
// acceptance bar for `glsbench -scenario ... -seed N`.
//
// Keys come from per-(phase, worker) splitmix64 streams: worker w owns
// the global arrival indices i ≡ w (mod workers) and draws their keys
// from its own stream in index order, so no worker's sequence depends on
// another worker's progress. Arrival offsets come from the inverse of
// the cumulative arrival function: constant rate r gives tᵢ = i/r; a
// linear ramp r₀→r₁ over D has Λ(t) = r₀t + (r₁−r₀)t²/2D and tᵢ solves
// Λ(t) = i, a quadratic with one increasing root in [0, D].

// Op is one planned acquisition.
type Op struct {
	// Index is the global arrival index within the phase.
	Index int
	// Worker issues the op (Index mod workers).
	Worker int
	// Key is the planned lock key, in [1, keys].
	Key uint64
	// At is the scheduled arrival offset from phase start.
	At time.Duration
}

// PhasePlan is one phase's expanded op schedule.
type PhasePlan struct {
	// Phase is the source phase.
	Phase *Phase
	// N is the total planned op count: round(meanRate × duration).
	N int
	// Blocked is the number of ops targeting Phase.Block (0 when the
	// phase holds no blocker) — the RefBlocked assertion value.
	Blocked uint64
	// PerWorker holds each worker's ops in issue (= global index) order.
	PerWorker [][]Op
}

// Plan is a fully expanded scenario: the deterministic part of a run.
type Plan struct {
	// Scenario is the source scenario.
	Scenario *Scenario
	// Seed is the resolved seed the streams were derived from.
	Seed uint64
	// Phases holds one plan per scenario phase, in order.
	Phases []*PhasePlan
}

// BuildPlan expands s under the given seed (0 means use the scenario's
// own seed). The scenario must be valid — BuildPlan is meant for
// ParseScenario output and panics on op counts the validator would have
// rejected.
func BuildPlan(s *Scenario, seed uint64) *Plan {
	if seed == 0 {
		seed = s.Seed
	}
	p := &Plan{Scenario: s, Seed: seed}
	for pi, ph := range s.Phases {
		p.Phases = append(p.Phases, buildPhase(s, ph, pi, seed))
	}
	return p
}

// buildPhase expands one phase.
func buildPhase(s *Scenario, ph *Phase, phaseIdx int, seed uint64) *PhasePlan {
	n := int(math.Round(ph.Rate.Mean() * ph.Duration.Seconds()))
	if n > MaxOps {
		panic(fmt.Sprintf("scenario: phase %q plans %d ops, above the validated cap", ph.Name, n))
	}
	pp := &PhasePlan{Phase: ph, N: n, PerWorker: make([][]Op, s.Workers)}

	// Pre-size each worker's slice: worker w gets ceil((n-w)/workers).
	for w := 0; w < s.Workers; w++ {
		cnt := (n - w + s.Workers - 1) / s.Workers
		if cnt < 0 {
			cnt = 0
		}
		pp.PerWorker[w] = make([]Op, 0, cnt)
	}

	// Per-worker key streams, derived from (seed, phase, worker) only.
	rngs := make([]xrand.SplitMix64, s.Workers)
	for w := 0; w < s.Workers; w++ {
		rngs[w] = xrand.Seeded(streamSeed(seed, phaseIdx, w))
	}
	// Zipf phases share one cumulative table; each worker samples it with
	// its own stream (building a per-worker table would be O(keys) each).
	var cdf []float64
	if ph.Dist.Kind == DistZipf {
		cdf = zipfCDF(int(s.Keys), ph.Dist.Alpha)
	}

	for i := 0; i < n; i++ {
		w := i % s.Workers
		op := Op{
			Index:  i,
			Worker: w,
			Key:    drawKey(s, ph, &rngs[w], cdf, i),
			At:     arrivalAt(ph, i),
		}
		if ph.Block != 0 && op.Key == ph.Block {
			pp.Blocked++
		}
		pp.PerWorker[w] = append(pp.PerWorker[w], op)
	}
	return pp
}

// streamSeed derives the (seed, phase, worker) stream seed by running the
// inputs through splitmix itself, so related seeds still give unrelated
// streams.
func streamSeed(seed uint64, phase, worker int) uint64 {
	h := xrand.Seeded(seed + uint64(phase)*0x9e3779b97f4a7c15)
	h.Next()
	w := xrand.Seeded(uint64(worker) + 0xbf58476d1ce4e5b9)
	return h.Next() ^ w.Next()
}

// drawKey draws op i's key from the worker's stream under the phase's
// distribution. Keys are 1-based.
func drawKey(s *Scenario, ph *Phase, rng *xrand.SplitMix64, cdf []float64, i int) uint64 {
	switch ph.Dist.Kind {
	case DistUniform:
		return 1 + rng.Uintn(s.Keys)
	case DistZipf:
		return 1 + uint64(sampleCDF(cdf, rng.Float64()))
	case DistHot:
		if rng.Bool(float64(ph.Dist.Pct) / 100) {
			return ph.Dist.Hot
		}
		return 1 + rng.Uintn(s.Keys)
	case DistRotate:
		// The hot tenant rotates by global arrival index — part of the
		// plan, not the clock — so the skew schedule replays exactly.
		tenants := uint64(ph.Dist.Tenants)
		slice := s.Keys / tenants
		if slice == 0 {
			slice = 1
		}
		if rng.Bool(float64(ph.Dist.Pct) / 100) {
			hot := (uint64(i) / uint64(ph.Dist.RotateOps)) % tenants
			lo := hot * slice
			return 1 + lo + rng.Uintn(slice)
		}
		return 1 + rng.Uintn(s.Keys)
	default:
		panic("scenario: unvalidated distribution")
	}
}

// arrivalAt inverts the phase's cumulative arrival function at index i.
func arrivalAt(ph *Phase, i int) time.Duration {
	r0, r1 := ph.Rate.From, ph.Rate.To
	if r0 == r1 {
		return time.Duration(float64(i) / r0 * float64(time.Second))
	}
	// Λ(t) = r0·t + a·t² with a = (r1−r0)/2D; solve a·t² + r0·t − i = 0.
	// t = (−r0 + √(r0² + 4ai)) / 2a is the increasing root for either
	// ramp direction (for a < 0 both numerator and denominator flip sign).
	d := ph.Duration.Seconds()
	a := (r1 - r0) / (2 * d)
	disc := r0*r0 + 4*a*float64(i)
	if disc < 0 {
		disc = 0 // float guard; Λ(D) ≥ n by construction
	}
	t := (-r0 + math.Sqrt(disc)) / (2 * a)
	if t < 0 {
		t = 0
	}
	if t > d {
		t = d
	}
	return time.Duration(t * float64(time.Second))
}

// zipfCDF builds the cumulative table for P(i) ∝ 1/(i+1)^alpha over n
// items (the same math as xrand.NewZipf, shared across workers here).
func zipfCDF(n int, alpha float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// sampleCDF inverse-samples the table at u ∈ [0, 1).
func sampleCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// WriteReplay writes the plan's replay log: a text record of every
// planned op in global arrival order. The log is a pure function of the
// plan, so equal (scenario, seed) pairs produce byte-identical logs —
// the determinism acceptance check diffs two of these.
func (p *Plan) WriteReplay(w io.Writer) error {
	bw := bufio.NewWriter(w)
	s := p.Scenario
	fmt.Fprintf(bw, "# glscn replay v1\n")
	fmt.Fprintf(bw, "scenario %s seed %d keys %d workers %d\n", s.Name, p.Seed, s.Keys, s.Workers)
	for pi, pp := range p.Phases {
		ph := pp.Phase
		fmt.Fprintf(bw, "phase %d %s ops %d blocked %d duration %d rate %s dist %s\n",
			pi, ph.Name, pp.N, pp.Blocked, ph.Duration.Nanoseconds(), ph.Rate, ph.Dist.Kind)
		// Ops interleave back into global index order: index i lives at
		// PerWorker[i%workers][i/workers].
		for i := 0; i < pp.N; i++ {
			op := pp.PerWorker[i%s.Workers][i/s.Workers]
			fmt.Fprintf(bw, "op %d %d w%d key %d at %d\n", pi, op.Index, op.Worker, op.Key, op.At.Nanoseconds())
		}
	}
	return bw.Flush()
}
