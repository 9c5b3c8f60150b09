package client

import (
	"errors"
	"sync"
)

// ErrStaleToken reports a fenced write carrying a token older than the
// newest this store has seen for the key: the writer's lease expired and
// the key was granted onward, so the write must be dropped.
var ErrStaleToken = errors.New("glsd client: stale fencing token")

// FencedStore is the consumer side of fencing: a token check per key. It
// models the storage system a lock client guards — every write carries the
// writer's fencing token, and the store rejects any token older than the
// newest it has accepted for that key. A client that acquired, stalled past
// its lease, and woke up to write anyway is fenced off: the next holder's
// token is strictly larger (the server mints them in grant order), so the
// stale write loses deterministically.
//
// The store is deliberately tiny — it keeps the tokens, which decide every
// write, and drops the values — and exists so tests and the chaos harness
// can assert the token protocol end to end rather than to be a database.
type FencedStore struct {
	mu   sync.Mutex
	last map[uint64]uint64 // key → newest accepted token
}

// NewFencedStore builds an empty store.
func NewFencedStore() *FencedStore {
	return &FencedStore{last: make(map[uint64]uint64)}
}

// Write accepts value for key iff token is no older than the newest
// accepted token for key. Equal tokens are accepted (same holder writing
// twice); older tokens fail with ErrStaleToken.
func (st *FencedStore) Write(key, token, value uint64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if token < st.last[key] {
		return ErrStaleToken
	}
	st.last[key] = token
	return nil
}
