package locks

import (
	"fmt"
	"strings"
)

// RWAlgorithm identifies a reader-writer lock implementation — the RW
// analogue of Algorithm. The paper's systems evaluation overloads pthread
// rwlocks with a single TTAS-based implementation (§5.2 footnote 7); glsrw
// grows that into a family so read-mostly workloads can pick (or let GLK
// pick) a read side that scales like the write path does.
type RWAlgorithm int

// The explicit reader-writer algorithms.
const (
	// RWTTASAlgo is the paper's single-word TTAS reader-writer spinlock:
	// compact (one line) and fine at low reader counts, but every RLock is a
	// CAS on one shared line, so reader throughput collapses as cores climb.
	RWTTASAlgo RWAlgorithm = iota + 1
	// RWStripedAlgo is the BRAVO-style striped-reader lock: readers count
	// themselves into per-stripe cells (lazily inflated from one inline
	// cell), writers sweep the stripes. Read acquisitions scale; writers pay
	// the sweep.
	RWStripedAlgo
	// RWWritePrefAlgo is the write-preferring blocking variant: readers
	// defer to waiting writers, and everyone parks instead of spinning —
	// the right shape when writers must not starve or the system is
	// oversubscribed.
	RWWritePrefAlgo
	// RWPhaseFairAlgo is the phase-fair ticket variant: reader and writer
	// phases alternate, so neither side starves regardless of how
	// continuous the other's stream is, at RWTTAS-like (shared-line)
	// read-side cost but with one-word writes: the fairness member of the
	// family, and the faster one once writes pass ≈ 5 %.
	RWPhaseFairAlgo
)

var rwAlgorithmNames = map[RWAlgorithm]string{
	RWTTASAlgo:      "rwttas",
	RWStripedAlgo:   "rwstriped",
	RWWritePrefAlgo: "rwwritepref",
	RWPhaseFairAlgo: "rwphasefair",
}

// String returns the lower-case name of the algorithm.
func (a RWAlgorithm) String() string {
	if s, ok := rwAlgorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("RWAlgorithm(%d)", int(a))
}

// Valid reports whether a names a known reader-writer algorithm.
func (a RWAlgorithm) Valid() bool {
	_, ok := rwAlgorithmNames[a]
	return ok
}

// ParseRWAlgorithm converts a name from String back to an RWAlgorithm. An
// unknown name is rejected with the valid set in the error, so a mistyped
// CLI flag or config value tells the operator what would have worked.
func ParseRWAlgorithm(name string) (RWAlgorithm, error) {
	for _, a := range RWAlgorithms() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("locks: unknown rw algorithm %q (valid: %s)", name, rwAlgorithmList())
}

// rwAlgorithmList names every RW algorithm in declaration order, for error
// messages.
func rwAlgorithmList() string {
	names := make([]string, 0, len(rwAlgorithmNames))
	for _, a := range RWAlgorithms() {
		names = append(names, a.String())
	}
	return strings.Join(names, ", ")
}

// RWAlgorithms lists every supported RW algorithm in declaration order.
func RWAlgorithms() []RWAlgorithm {
	return []RWAlgorithm{RWTTASAlgo, RWStripedAlgo, RWWritePrefAlgo, RWPhaseFairAlgo}
}

// NewRW constructs a fresh, unlocked reader-writer lock of the given
// algorithm. Like New, it panics on an unknown algorithm.
func NewRW(a RWAlgorithm) RWLock {
	switch a {
	case RWTTASAlgo:
		return NewRWTTAS()
	case RWStripedAlgo:
		return NewRWStriped()
	case RWWritePrefAlgo:
		return NewRWWritePref()
	case RWPhaseFairAlgo:
		return NewRWPhaseFair()
	default:
		panic(fmt.Sprintf("locks: NewRW(%v): unknown rw algorithm", a))
	}
}
