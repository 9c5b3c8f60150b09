package scenario

import (
	"context"
	"sync"
	"time"

	"gls"
	"gls/client"
	"gls/locks"
)

// A Driver is the lock service a scenario runs against. The engine is
// driver-agnostic: the same plan executes in-process (ServiceDriver) or
// over the glsd wire path (WireDriver), so a scenario's lanes can be
// asserted on both sides of the network boundary.
type Driver interface {
	// Name labels the driver in reports ("service" or "wire").
	Name() string
	// Worker returns worker i's connection. Workers call their own
	// connection concurrently; a connection is only used by its worker.
	Worker(i int) (WorkerConn, error)
	// Hold acquires key on a control channel (for `block KEY` phases)
	// and returns the release function.
	Hold(key uint64) (release func() error, err error)
	// Close releases driver resources.
	Close() error
}

// A WorkerConn issues one worker's acquisitions.
type WorkerConn interface {
	// Acquire locks key, or takes a read share of it when read is set,
	// waiting at most timeout (0 blocks until granted; a read always
	// blocks). It returns (true, nil) on grant, (false, nil) on deadline,
	// and an error only for driver failures — which fail the scenario.
	Acquire(key uint64, read bool, timeout time.Duration) (bool, error)
	// Release unlocks a granted key, or returns its read share.
	Release(key uint64, read bool) error
}

// ServiceDriver runs scenarios against an in-process gls.Service.
type ServiceDriver struct {
	// Svc is the target service.
	Svc *gls.Service
}

// Name implements Driver.
func (d *ServiceDriver) Name() string { return "service" }

// Worker implements Driver; every worker shares the service.
func (d *ServiceDriver) Worker(int) (WorkerConn, error) {
	return serviceConn{d.Svc}, nil
}

// Hold implements Driver by taking the key on the shared service.
func (d *ServiceDriver) Hold(key uint64) (func() error, error) {
	d.Svc.Lock(key)
	return func() error { d.Svc.Unlock(key); return nil }, nil
}

// Close implements Driver; the caller owns the service.
func (d *ServiceDriver) Close() error { return nil }

// serviceConn adapts gls.Service to WorkerConn.
type serviceConn struct{ svc *gls.Service }

// Acquire implements WorkerConn. Bounded waits go through TryLockFor,
// the same deadline surface glsx exposes.
func (c serviceConn) Acquire(key uint64, read bool, timeout time.Duration) (bool, error) {
	switch {
	case read:
		c.svc.RLock(key)
	case timeout > 0:
		return c.svc.TryLockFor(key, timeout), nil
	default:
		c.svc.Lock(key)
	}
	return true, nil
}

// Release implements WorkerConn.
func (c serviceConn) Release(key uint64, read bool) error {
	if read {
		c.svc.RUnlock(key)
	} else {
		c.svc.Unlock(key)
	}
	return nil
}

// rwFamilies are the fixed reader-writer families a phase may name with
// `rwlock`, each with the constructor of one unlocked lock.
var rwFamilies = map[string]func() locks.RWLock{
	"rwstriped":    func() locks.RWLock { return locks.NewRWStriped() },
	"rwphasefair":  func() locks.RWLock { return locks.NewRWPhaseFair() },
	"rwwritepref":  func() locks.RWLock { return locks.NewRWWritePref() },
	"sync.RWMutex": func() locks.RWLock { return new(sync.RWMutex) },
}

// rwSet is one phase's fresh locks of a fixed family, lock i for key i+1,
// which all of the phase's workers share. A reader-writer phase has no
// timeout, so every acquisition blocks.
type rwSet []locks.RWLock

// newRWSet builds family's locks for keys 1..keys.
func newRWSet(family string, keys uint64) rwSet {
	s := make(rwSet, keys)
	for i := range s {
		s[i] = rwFamilies[family]()
	}
	return s
}

// Acquire implements WorkerConn.
func (s rwSet) Acquire(key uint64, read bool, _ time.Duration) (bool, error) {
	if read {
		s[key-1].RLock()
	} else {
		s[key-1].Lock()
	}
	return true, nil
}

// Release implements WorkerConn.
func (s rwSet) Release(key uint64, read bool) error {
	if read {
		s[key-1].RUnlock()
	} else {
		s[key-1].Unlock()
	}
	return nil
}

// WireDriver runs scenarios over the glsd text protocol: one client
// connection per worker plus a control connection for blocker holds, all
// dialed against addr (normally the §14 loopback rig).
type WireDriver struct {
	addr    string
	conns   []*client.Conn
	control *client.Conn
}

// NewWireDriver returns a driver dialing addr lazily per worker.
func NewWireDriver(addr string) *WireDriver {
	return &WireDriver{addr: addr}
}

// Name implements Driver.
func (d *WireDriver) Name() string { return "wire" }

// Worker implements Driver, dialing one session per worker.
func (d *WireDriver) Worker(i int) (WorkerConn, error) {
	for len(d.conns) <= i {
		d.conns = append(d.conns, nil)
	}
	if d.conns[i] == nil {
		c, err := client.Dial(d.addr)
		if err != nil {
			return nil, err
		}
		d.conns[i] = c
	}
	return wireConn{d.conns[i]}, nil
}

// Hold implements Driver on a dedicated control session, so a worker's
// in-flight wait can never interleave with the blocker's release on the
// same demux connection.
func (d *WireDriver) Hold(key uint64) (func() error, error) {
	if d.control == nil {
		c, err := client.Dial(d.addr)
		if err != nil {
			return nil, err
		}
		d.control = c
	}
	if _, err := d.control.TryLock(key, time.Minute); err != nil {
		return nil, err
	}
	return func() error { return d.control.Unlock(key) }, nil
}

// Close implements Driver, closing every session.
func (d *WireDriver) Close() error {
	var first error
	for _, c := range d.conns {
		if c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	if d.control != nil {
		if err := d.control.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// wireConn adapts client.Conn to WorkerConn.
type wireConn struct{ c *client.Conn }

// Acquire implements WorkerConn for writes only: glsd has no read side,
// and RunRig refuses a reader-writer plan before its first op. The wire
// protocol carries timeouts in whole milliseconds, so sub-millisecond
// deadlines round up to 1ms (a 0ms wire timeout would mean "server
// default"); timeout 0 blocks under the server's default wait bound.
func (c wireConn) Acquire(key uint64, _ bool, timeout time.Duration) (bool, error) {
	if timeout > 0 && timeout < time.Millisecond {
		timeout = time.Millisecond
	}
	_, err := c.c.Lock(context.Background(), key, 0, timeout)
	if err == client.ErrTimeout {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Release implements WorkerConn.
func (c wireConn) Release(key uint64, _ bool) error {
	return c.c.Unlock(key)
}
