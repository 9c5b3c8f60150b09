//go:build !clhtseam

package clht

// seam marks a point between a look-up's loads where the clhtseam build
// lets a test act (seam_clhtseam.go). In every other build it is empty and
// inlines to nothing.
func seam(seamPoint) {}
