// Package emastats holds the exponential moving average behind GLK's
// adaptation logic: GLK "keeps the exponential moving average of the
// statistics in order to hide possible short-term workload fluctuations"
// (paper §3).
package emastats

import "fmt"

// EMA is an exponential moving average with a fixed smoothing factor.
// The zero value is empty; the first observation seeds the average.
// EMA is not safe for concurrent use; GLK updates it while holding the lock
// whose statistics it tracks.
type EMA struct {
	value  float64
	weight float64
	seeded bool
}

// NewEMA returns an EMA with the given smoothing weight in (0, 1]; the
// weight is the fraction contributed by each new observation.
func NewEMA(weight float64) EMA {
	if weight <= 0 || weight > 1 {
		panic(fmt.Sprintf("emastats: EMA weight %v out of (0,1]", weight))
	}
	return EMA{weight: weight}
}

// Add incorporates one observation.
func (e *EMA) Add(x float64) {
	if !e.seeded {
		e.value = x
		e.seeded = true
		return
	}
	e.value += e.weight * (x - e.value)
}

// Value returns the current average (zero if no observations yet).
func (e *EMA) Value() float64 { return e.value }

// Seeded reports whether at least one observation has been added.
func (e *EMA) Seeded() bool { return e.seeded }
