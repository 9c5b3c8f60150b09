package main

import (
	"fmt"
	"hash/fnv"

	"gls/internal/xrand"
)

// The five workloads. Worker and connection counts are the issue's (2),
// capped at nproc so load never oversubscribes the machine.
const (
	wlSpread  = "inproc_spread"
	wlHot     = "inproc_hot"
	wlRW      = "inproc_rw"
	wlWire    = "wire_spread"
	wlHandoff = "wire_handoff"
)

var workloadNames = []string{wlSpread, wlHot, wlRW, wlWire, wlHandoff}

// gated reports whether BENCHMARK.json lists the workload, which holds its
// end-to-end metrics to their bounds. inproc_hot is a diagnostic: on
// default Options its lock follows the multiprogramming monitor between
// ticket and mutex mode and whole runs differ by half (README, "inproc_hot
// is a diagnostic").
func gated(w string) bool { return w != wlHot }

const (
	spreadKeysPerWorker = 1024 // 2 × 1024 keys ≈ 0.8 MB of lock state: inside one core's L2
	rwKeys              = 16
	rwWriteEvery        = 10   // 10 % writes
	rwSeqLen            = 4096 // how much of inproc_rw's endless sequence the plan records (and the ladder replays)
	probeCells          = 1024 // 64 KB of private mutexes per worker: L2-resident, like the keys
	wireSlotsPerConn    = 8
	wireKeysPerSlot     = 128
	writeBit            = 1 << 31
)

// plan is everything a run derives from -seed: which keys exist, which
// slot owns which keys, the order each slot visits them in, and (inproc_rw)
// which visits write. The code under test only ever sees the keys.
type plan struct {
	workload string
	seed     uint64
	workers  int        // driver goroutines in-process; connections on the wire
	slots    int        // closed-loop callers (= workers in-process)
	keys     []uint64   // key index → key
	seqs     [][]uint32 // per slot: key indices in visiting order, walked cyclically
	probe    [][]uint32 // inproc_spread, per slot: the order its probe visits its cells in
	streams  []uint64   // inproc_rw, per slot: the seed of its splitmix64 stream of visits
	hash     string
}

// inprocKey is address-like (a line-aligned Go heap object), the paper's
// use of GLS; wireKey is a small sequential id, what glsd's clients send.
func inprocKey(i int) uint64 { return 0xc000100000 + uint64(i)*64 }
func wireKey(i int) uint64   { return 0x1000 + uint64(i) }

// rwVisit draws inproc_rw's next visit: a key index, with writeBit set on
// one visit in rwWriteEvery.
func rwVisit(r *xrand.SplitMix64) uint32 {
	z := r.Next()
	e := uint32(z % rwKeys)
	if (z>>32)%rwWriteEvery == 0 {
		e |= writeBit
	}
	return e
}

func shuffle(r *xrand.SplitMix64, xs []uint32) {
	for i := len(xs) - 1; i > 0; i-- {
		j := int(r.Uintn(uint64(i + 1)))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

func newPlan(workload string, seed uint64, nproc int) (*plan, error) {
	workers := min(2, nproc)
	p := &plan{workload: workload, seed: seed, workers: workers, slots: workers}
	// One stream per purpose, so adding a draw to one never shifts another.
	assign := xrand.NewSplitMix64(seed ^ 0xa5a5a5a5_00000001)
	order := xrand.NewSplitMix64(seed ^ 0xa5a5a5a5_00000002)
	probeOrder := xrand.NewSplitMix64(seed ^ 0xa5a5a5a5_00000003)

	// partition gives every slot its share of nkeys key indices, then
	// shuffles each slot's visiting order. Dealt, a slot's keys are drawn
	// from all over the key space. Not dealt, each slot owns one contiguous
	// block and the seed picks which: keys are initialised in index order,
	// so a block's lock objects lie together in the heap, and two workers
	// whose keys are dealt write to each other's cache lines on every other
	// op (inproc_spread: 20 M ops/s against 25 M, p95 0.23 against 0.14 µs,
	// and how much it costs moves with the workers' relative timing).
	partition := func(nkeys int, key func(int) uint64, deal bool) {
		all := make([]uint32, nkeys)
		for i := range all {
			all[i] = uint32(i)
			p.keys = append(p.keys, key(i))
		}
		per := nkeys / p.slots
		if deal {
			shuffle(assign, all)
		} else {
			first := int(assign.Uintn(uint64(p.slots))) * per
			all = append(all[first:], all[:first]...)
		}
		for s := 0; s < p.slots; s++ {
			seq := append([]uint32(nil), all[s*per:(s+1)*per]...)
			shuffle(order, seq)
			p.seqs = append(p.seqs, seq)
		}
	}

	switch workload {
	case wlSpread:
		partition(p.slots*spreadKeysPerWorker, inprocKey, false)
	case wlHot:
		// One key: the seed picks which, so its shard and bucket vary.
		p.keys = []uint64{inprocKey(int(assign.Uintn(1 << 16)))}
		for s := 0; s < p.slots; s++ {
			p.seqs = append(p.seqs, []uint32{0})
		}
	case wlRW:
		for i := 0; i < rwKeys; i++ {
			p.keys = append(p.keys, inprocKey(i))
		}
		// Each slot draws its visits from its own stream as it goes and
		// never repeats: a fixed sequence walked round and round resonates
		// with the adaptive RW locks (one seed's 4000-visit loop held them
		// in striped mode, the next in phase-fair, p50 42 against 76 ns).
		for s := 0; s < p.slots; s++ {
			p.streams = append(p.streams, order.Next())
			r := xrand.Seeded(p.streams[s])
			seq := make([]uint32, rwSeqLen)
			for i := range seq {
				seq[i] = rwVisit(&r)
			}
			p.seqs = append(p.seqs, seq)
		}
	case wlWire:
		p.slots = workers * wireSlotsPerConn
		partition(p.slots*wireKeysPerSlot, wireKey, true)
	case wlHandoff:
		p.keys = []uint64{wireKey(int(assign.Uintn(1 << 16)))}
		for s := 0; s < p.slots; s++ {
			p.seqs = append(p.seqs, []uint32{0})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}

	if workload == wlSpread {
		for s := 0; s < p.slots; s++ {
			cells := make([]uint32, probeCells)
			for i := range cells {
				cells[i] = uint32(i)
			}
			shuffle(probeOrder, cells)
			p.probe = append(p.probe, cells)
		}
	}

	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d/", workload, p.workers, p.slots)
	for _, k := range p.keys {
		fmt.Fprintf(h, "%x,", k)
	}
	for _, seq := range append(p.seqs, p.probe...) {
		for _, e := range seq {
			fmt.Fprintf(h, "%x,", e)
		}
		fmt.Fprint(h, "/")
	}
	p.hash = fmt.Sprintf("%016x", h.Sum64())
	return p, nil
}

func (p *plan) wire() bool { return p.workload == wlWire || p.workload == wlHandoff }
