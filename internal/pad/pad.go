// Package pad names the cache-line size.
//
// The paper pads every lock to one cache line (64 bytes) "for fairness and
// for avoiding false cache-line sharing" (§3.2). The constant here lets
// other packages size their padding without repeating the magic number.
package pad

// CacheLineSize is the assumed size of a CPU cache line in bytes.
//
// Both evaluation platforms in the paper (Intel Ivy Bridge and Haswell Xeons)
// use 64-byte lines, as does every amd64/arm64 part this library targets.
const CacheLineSize = 64
