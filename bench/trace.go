package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// slotTrace holds one slot's traced ops in memory: the stamps are the
// spans, expanded only when the run is over.
type slotTrace struct {
	recs []stamps
	_    [64]byte
}

func (t *slotTrace) add(st *stamps) {
	if len(t.recs) < cap(t.recs) {
		t.recs = append(t.recs, *st)
	}
}

// span is one line of the trace file. Spans of one op share Op; Parent is
// the enclosing span's ID (0 for the op's root).
type span struct {
	Op      uint64 `json:"op"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// expand turns one op's stamps into its spans: a root covering the op and
// one child per public call (and per critical section or think time the
// workload has), in start order.
func expand(op uint64, nextID *uint64, st *stamps, names [4]string, out []span) []span {
	*nextID++
	root := *nextID
	out = append(out, span{Op: op, ID: root, Name: "op", StartNS: st.acq0, EndNS: st.end})
	edges := [5]int64{st.acq0, st.acq1, st.rel0, st.rel1, st.end}
	for i, name := range names {
		if name == "" || edges[i+1] == edges[i] {
			continue
		}
		*nextID++
		out = append(out, span{Op: op, ID: *nextID, Parent: root, Name: name, StartNS: edges[i], EndNS: edges[i+1]})
	}
	return out
}

// selfTimes adds each span's self time — its duration minus its children's
// — to self by name, and returns the roots' total duration.
func selfTimes(spans []span, self map[string]float64) (rootTotal float64) {
	child := map[uint64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for _, s := range spans {
		self[s.Name] += float64(s.EndNS - s.StartNS - child[s.ID])
		if s.Parent == 0 {
			rootTotal += float64(s.EndNS - s.StartNS)
		}
	}
	return rootTotal
}

// spans writes the traced ops to the trace file and derives what the spans
// alone can tell: self-time shares and the client's per-call round trips.
func (r *runner) spans(res *result) error {
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.cfg.outDir, "trace-"+r.cfg.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // the success path checks Close below
	w := bufio.NewWriter(f)

	self := map[string]float64{}
	var rootTotal float64
	var acq, rel []float64
	var op, id uint64
	var buf []span
	for s := range r.traces {
		for i := range r.traces[s].recs {
			st := &r.traces[s].recs[i]
			op++
			buf = expand(op, &id, st, r.in.spanNames(st.kind), buf[:0])
			rootTotal += selfTimes(buf, self)
			for _, sp := range buf {
				fmt.Fprintf(w, `{"op":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
					sp.Op, sp.ID, sp.Parent, sp.Name, sp.StartNS, sp.EndNS)
			}
			acq = append(acq, float64(st.acq1-st.acq0)/1e3)
			rel = append(rel, float64(st.rel1-st.rel0)/1e3)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	res.TraceFile = path
	res.SelfShare = map[string]float64{}
	for name, ns := range self {
		res.SelfShare[name] = ns / rootTotal
	}
	switch r.cfg.workload {
	case wlWire:
		res.PerLayer["client.trylock_rtt_us"] = median(acq)
		res.PerLayer["client.unlock_rtt_us"] = median(rel)
	case wlHandoff:
		res.PerLayer["client.unlock_rtt_us"] = median(rel)
	}
	return nil
}
