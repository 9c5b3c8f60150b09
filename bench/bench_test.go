package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// quick is a run short enough for `go test`: 4 cycles of 50+10 ms, one
// set-up, a short warm-up, a small big table, few spans kept.
func quick(workload string, trace bool, dir string) config {
	return config{
		workload: workload, seed: 7, trace: trace,
		cycles: 4, phase: 50 * time.Millisecond, probe: 10 * time.Millisecond, rung: 24 * time.Millisecond,
		setups: 1, warmup: 2000, bigKeys: 1 << 12, spanOps: 2000, outDir: dir,
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestWorkloads runs every workload's traced run (whose untraced cycles
// also yield the end-to-end metrics) and holds the output to the contract:
// every metric of both lists exactly once, finite, end-to-end ones
// positive; outputs correct; the layers separated as designed.
func TestWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) { testWorkload(t, w, dir) })
	}
}

func testWorkload(t *testing.T, w, dir string) {
	res, err := run(quick(w, true, dir))
	if err != nil {
		t.Fatalf("%s: %v", w, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d errors=%v", w, res.Correct, res.Attempted, res.Failed, res.Errors)
	}
	if len(res.EndToEnd) != len(endToEnd) || len(res.PerLayer) != len(perLayer) {
		t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d", w, len(res.EndToEnd), len(res.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, m := range endToEnd {
		if v, ok := res.EndToEnd[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Errorf("%s: end-to-end %s = %v (present %v), want finite and positive", w, m.Name, v, ok)
		}
	}
	for _, m := range perLayer {
		if v, ok := res.PerLayer[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: per-layer %s = %v (present %v), want finite", w, m.Name, v, ok)
		}
	}

	l := res.PerLayer
	switch w {
	case wlSpread:
		if got := l["gls.handle_miss_share"]; math.Abs(got-0.5) > 0.01 {
			t.Errorf("%s: gls.handle_miss_share = %v, want 0.5 (Lock misses, Unlock hits)", w, got)
		}
		// The ladder climbs: each rung contains the one below.
		if a, b, c := l["locks.ticket_ns"], l["glk.lock_ns"], l["gls.service_ns"]; a > 1.2*b || b > 1.2*c {
			t.Errorf("%s: ladder not monotone within 20%%: ticket %.1f, glk %.1f, service %.1f ns", w, a, b, c)
		}
	case wlWire:
		if l["client.wait_share"] != 0 {
			t.Errorf("%s: client.wait_share = %v, want 0", w, l["client.wait_share"])
		}
		if l["server.grants"] != float64(res.Attempted) || l["server.releases"] != float64(res.Attempted) {
			t.Errorf("%s: %v grants, %v releases, %d ops", w, l["server.grants"], l["server.releases"], res.Attempted)
		}
	}
	if w == wlSpread || w == wlHot || w == wlRW {
		if l["server.grants"] != 0 || l["server.parse_ns"] != 0 {
			t.Errorf("%s: server layer did work in-process: %v grants", w, l["server.grants"])
		}
	}
	checkTrace(t, res.TraceFile)
}

// checkTrace reads a span file back: children lie inside their parents and
// beside each other (or a parent's self time, its duration minus theirs,
// would count an overlap twice), and self times add up to the root spans
// within 2 %.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	byID := map[uint64]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
		byID[s.ID] = s
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	lastEnd := map[uint64]int64{} // parent → end of its latest child (the file is in start order)
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Fatalf("%s: span %d ends before it starts", path, s.ID)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Op != s.Op || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Fatalf("%s: span %d (%s) does not nest inside its parent %d", path, s.ID, s.Name, s.Parent)
		}
		if end, ok := lastEnd[s.Parent]; ok && s.StartNS < end {
			t.Fatalf("%s: span %d (%s) overlaps the sibling before it", path, s.ID, s.Name)
		}
		lastEnd[s.Parent] = s.EndNS
	}
	self := map[string]float64{}
	root := selfTimes(spans, self)
	var sum float64
	for _, ns := range self {
		sum += ns
	}
	if root <= 0 || math.Abs(sum-root) > 0.02*root {
		t.Errorf("%s: self times sum to %.0f ns, roots to %.0f ns", path, sum, root)
	}
}

func TestPlanHash(t *testing.T) {
	for _, w := range workloadNames {
		a, err := newPlan(w, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(w, 1, 2)
		c, _ := newPlan(w, 2, 2)
		if a.hash != b.hash {
			t.Errorf("%s: equal seeds, plan_hash %s and %s", w, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 1 and 2 share plan_hash %s", w, a.hash)
		}
	}
}

// TestSpreadKeysInBlocks: each inproc_spread worker owns one block of
// neighbouring keys (no two workers' lock objects interleave in the heap),
// every key has one owner, and the seed decides which block a worker gets.
func TestSpreadKeysInBlocks(t *testing.T) {
	firstOfSlot0 := map[uint32]bool{}
	for seed := uint64(1); seed <= 8; seed++ {
		p, err := newPlan(wlSpread, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		owned := map[uint32]bool{}
		for s, seq := range p.seqs {
			lo, hi := seq[0], seq[0]
			for _, idx := range seq {
				lo, hi = min(lo, idx), max(hi, idx)
				if owned[idx] {
					t.Fatalf("seed %d: key %d has two owners", seed, idx)
				}
				owned[idx] = true
			}
			if len(seq) != spreadKeysPerWorker || int(hi-lo) != len(seq)-1 {
				t.Errorf("seed %d slot %d: %d keys spanning %d..%d, want one block of %d", seed, s, len(seq), lo, hi, spreadKeysPerWorker)
			}
			if s == 0 {
				firstOfSlot0[lo] = true
			}
		}
	}
	if len(firstOfSlot0) < 2 {
		t.Errorf("eight seeds gave slot 0 the same block every time")
	}
}

// TestBrokenCriticalSection proves the correctness check can fail: with the
// counter bumped outside the lock, updates are lost and the run says so.
func TestBrokenCriticalSection(t *testing.T) {
	cfg := quick(wlHot, false, t.TempDir())
	cfg.breakCS = true
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || len(res.Errors) == 0 {
		t.Errorf("broken critical section passed the check: %d ops", res.Attempted)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in metrics.go and
// plan.go.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, w := range workloadNames {
		if gated(w) {
			want = append(want, w)
		}
	}
	if len(b.Workloads) != len(want) {
		t.Fatalf("%d workloads, want the gated ones %v", len(b.Workloads), want)
	}
	for i, w := range b.Workloads {
		if w.Name != want[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, want[i])
		}
	}
	same := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: %+v, want %+v", kind, got[i], want[i])
			}
			if !nameRE.MatchString(want[i].Name) || seen[want[i].Name] {
				t.Errorf("%s: bad or repeated name %q", kind, want[i].Name)
			}
			seen[want[i].Name] = true
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestCompareRefusesUnlikeRuns: two result files that were not measured
// with the same cycles are not compared.
func TestCompareRefusesUnlikeRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cycles int) string {
		r := &result{Workload: wlSpread, Env: env{Cycles: cycles, PhaseMS: 200, ProbeMS: 40, GOMAXPROCS: 2},
			EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
		for _, m := range endToEnd {
			r.EndToEnd[m.Name] = 1
		}
		r.PerLayer["probe_ns"] = 1
		path := filepath.Join(dir, name)
		if err := writeJSON(path, resultFile{Runs: []*result{r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.json", 83), write("b.json", 83), write("c.json", 41)
	if err := compareFiles(a, b, io.Discard); err != nil {
		t.Errorf("like runs: %v", err)
	}
	if err := compareFiles(a, c, io.Discard); err == nil {
		t.Errorf("83 cycles were compared with 41")
	}
}

// TestQuartileSpread pins the quartiles to Python's
// statistics.quantiles(xs, n=4): for 1..10 they are 2.75 and 8.25.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{7, 1, 9, 3, 5, 10, 2, 8, 4, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestHistQuantile(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 1000; v++ {
		h.add(v * 100) // 100 ns … 100 µs, uniform
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got, want := h.quantile(q), q*100_000; math.Abs(got-want) > 0.01*want {
			t.Errorf("quantile(%v) = %v, want %v within 1 %%", q, got, want)
		}
	}
	if h.max != 100_000 {
		t.Errorf("max = %d", h.max)
	}
}
