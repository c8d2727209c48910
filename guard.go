package flat

import (
	"errors"
	"sync"
)

// ErrBusy is returned by Close, DropCache and Rebuild when queries are in flight.
// Retry once the queries have drained; queries themselves never return it.
var ErrBusy = errors.New("flat: queries in flight")

// ErrClosed is returned by every query and maintenance method after a
// successful Close.
var ErrClosed = errors.New("flat: index is closed")

// queryGuard serializes maintenance operations (Close, DropCache,
// Rebuild) against in-flight queries. Queries hold the read side for
// their whole execution; maintenance try-locks the write side and
// reports ErrBusy instead of blocking — or racing — when queries are
// running. This is what turns the documented "do not call
// Close/DropCache concurrently with queries" footgun into a hard error.
//
// Every side is taken by passing a closure: the guard locks, runs fn and
// unlocks in a defer of the same function, so an acquire without its
// release cannot be written — on any return path, or when fn panics.
type queryGuard struct {
	mu     sync.RWMutex
	closed bool // guarded by mu
}

// query runs fn as an in-flight query: the read side is held for
// exactly fn's duration. On a closed guard it returns ErrClosed and fn
// does not run.
func (g *queryGuard) query(fn func() error) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.closed {
		return ErrClosed
	}
	return fn()
}

// maintain runs fn as a maintenance operation holding the exclusive
// side, or fails — without running fn — with ErrBusy (queries running)
// or ErrClosed (already closed).
func (g *queryGuard) maintain(fn func() error) error {
	if !g.mu.TryLock() {
		return ErrBusy
	}
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	return fn()
}

// shutdown is maintain that also transitions to the closed state; every
// later query/maintain returns ErrClosed. A second shutdown reports
// ErrClosed so Close is effectively idempotent-with-error.
func (g *queryGuard) shutdown() error {
	if !g.mu.TryLock() {
		return ErrBusy
	}
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	g.closed = true
	return nil
}
