package main

import (
	"context"
	"sync"
)

// gate is the admission-control semaphore: a weighted semaphore with
// FIFO waiters and context-bounded waiting. Every query acquires weight
// before touching the database (traced queries weigh double — they
// read the clock around every candidate), so the number of
// concurrently executing queries is bounded no matter how many requests
// arrive. A request that cannot be admitted before its wait context
// expires is turned away, which the HTTP layer reports as 429 with
// Retry-After — load shedding at the door instead of collapse inside.
type gate struct {
	capacity int64

	mu      sync.Mutex // lockcheck: leaf
	cur     int64      // guarded by mu
	waiters []*waiter  // guarded by mu
}

// waiter is one blocked Acquire; ready is closed when the gate grants
// its weight.
type waiter struct {
	weight int64
	ready  chan struct{}
}

func newGate(capacity int64) *gate {
	if capacity < 1 {
		capacity = 1
	}
	return &gate{capacity: capacity}
}

// clamp bounds a request weight to the gate capacity so an over-weight
// request (a traced query against capacity 1) degrades to "take the
// whole gate" instead of blocking forever. Acquire and Release clamp
// identically, so accounting stays balanced.
func (g *gate) clamp(weight int64) int64 {
	if weight > g.capacity {
		return g.capacity
	}
	return weight
}

// TryAcquire grants weight units if the gate has room for them now and
// nobody is queued ahead — Acquire's first step, so FIFO holds — and
// reports whether it did. It never waits, so a caller builds its wait
// context only when TryAcquire fails.
func (g *gate) TryAcquire(weight int64) bool {
	weight = g.clamp(weight)
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.grantLocked(weight)
}

// grantLocked is the admission test without waiting: room for weight and
// no waiters. The caller holds mu.
func (g *gate) grantLocked(weight int64) bool {
	if g.cur+weight <= g.capacity && len(g.waiters) == 0 {
		g.cur += weight
		return true
	}
	return false
}

// Acquire blocks until weight units are granted or ctx is done,
// returning ctx.Err() in the latter case. Grants are FIFO: a heavy
// waiter at the head is not starved by lighter arrivals behind it.
func (g *gate) Acquire(ctx context.Context, weight int64) error {
	weight = g.clamp(weight)
	g.mu.Lock()
	if g.grantLocked(weight) {
		g.mu.Unlock()
		return nil
	}
	w := &waiter{weight: weight, ready: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
	}
	g.mu.Lock()
	select {
	case <-w.ready:
		// Granted in the race between ctx firing and taking the lock:
		// hand the grant straight back so the accounting stays exact.
		g.mu.Unlock()
		g.Release(weight)
	default:
		for i, q := range g.waiters {
			if q == w {
				g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
				break
			}
		}
		g.mu.Unlock()
	}
	return ctx.Err()
}

// Release returns weight units and admits as many queued waiters as now
// fit, in arrival order.
func (g *gate) Release(weight int64) {
	weight = g.clamp(weight)
	g.mu.Lock()
	g.cur -= weight
	if g.cur < 0 {
		g.cur = 0
	}
	for len(g.waiters) > 0 {
		w := g.waiters[0]
		if g.cur+w.weight > g.capacity {
			break
		}
		g.cur += w.weight
		g.waiters = g.waiters[1:]
		close(w.ready)
	}
	g.mu.Unlock()
}

// Load reports the in-flight weight and the capacity; /readyz uses it
// to surface saturation.
func (g *gate) Load() (inFlight, capacity int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur, g.capacity
}
