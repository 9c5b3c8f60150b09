//go:build clhtseam

package clht

// seamHook, when set, runs at every seam: a test that sets it runs writers
// between a look-up's loads, one schedule at a time. Tests set and clear it
// from the goroutine that looks up.
var seamHook func(seamPoint)

func seam(p seamPoint) {
	if h := seamHook; h != nil {
		h(p)
	}
}
