// Package fixture seeds every paircheck rule: unpaired mutexes on early
// returns and panics, pins and handles forgotten on some path, lost
// context cancel funcs, phase timers observed on some paths or on none,
// and annotation obligations with no matching call.
package fixture

import (
	"context"
	"sync"
	"time"
)

// counter owns a lock paired on every path — or not.
type counter struct {
	mu sync.RWMutex
	n  int
}

// Good releases through defer: every exit is covered.
func (c *counter) Good() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Reader pairs RLock with RUnlock: read mode is tracked separately.
func (c *counter) Reader() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// Never takes the lock and falls off the end with it held.
func (c *counter) Never() {
	c.mu.Lock() // want `mutex c.mu in Never is never released \(no Unlock on any path\)`
	c.n++
}

// Leaky unlocks on the fallthrough path but not the early return.
func (c *counter) Leaky(n int) int {
	c.mu.Lock() // want `mutex c.mu in Leaky is released on some paths but not when the return at line \d+`
	if n > 0 {
		return n
	}
	c.mu.Unlock()
	return 0
}

// PanicHeld still holds the lock when the panic fires.
func (c *counter) PanicHeld(n int) {
	c.mu.Lock() // want `mutex c.mu in PanicHeld is still held when the panic at line \d+ fires`
	if n < 0 {
		panic("negative")
	}
	c.mu.Unlock()
}

// gen is a pinned resource in the Generation mold.
type gen struct{ refs int }

// Pin acquires a reference; paired with Unpin.
func (g *gen) Pin() bool { g.refs++; return true }

// Unpin releases a Pin.
func (g *gen) Unpin() { g.refs-- }

// PinGood releases the conditional pin on both continuation paths.
func PinGood(g *gen) int {
	if !g.Pin() {
		return 0
	}
	defer g.Unpin()
	return g.refs
}

// PinLeak takes a pin inside the condition and forgets it.
func PinLeak(g *gen) int {
	if g.Pin() { // want `pin g in PinLeak is never released \(no Unpin on any path\)`
		return g.refs
	}
	return 0
}

// Freeze hands the caller a generation reference it must Unpin.
func (s *store) Freeze() *gen { return &gen{refs: 1} }

// FreezeGood releases the frozen generation on every path via defer.
func FreezeGood(s *store) int {
	g := s.Freeze()
	defer g.Unpin()
	return g.refs
}

// FreezeLeak drops the reference Freeze handed out.
func FreezeLeak(s *store) int {
	g := s.Freeze() // want `pin g \(from s.Freeze\) in FreezeLeak is never released \(no Unpin on any path\)`
	return g.refs
}

// store hands out closable snapshots through a View method.
type store struct{}

// snapshot must be closed after use.
type snapshot struct{}

// Close releases the snapshot.
func (s *snapshot) Close() error { return nil }

// View opens a snapshot handle.
func (s *store) View() *snapshot { return &snapshot{} }

// HandleGood closes on every path via defer.
func HandleGood(s *store) {
	v := s.View()
	defer v.Close()
}

// HandleLeak closes on the fallthrough path but not the early return.
func HandleLeak(s *store, cond bool) {
	v := s.View() // want `handle v \(from s.View\) in HandleLeak is released on some paths but not when the return at line \d+`
	if cond {
		return
	}
	v.Close()
}

// loop is a background maintenance loop; it runs until Close.
type loop struct{}

// Close stops the loop.
func (l *loop) Close() {}

// Healthy reports whether the loop is keeping up.
func (l *loop) Healthy() bool { return true }

// StartMaintainer starts a loop the caller must Close.
func (s *store) StartMaintainer(ctx context.Context) (*loop, error) { return &loop{}, nil }

// shard owns its loop: storing it hands the Close obligation to the
// owner's own Close.
type shard struct{ mnt *loop }

// MaintainerGood stores the loop in its owner; the error path owes
// nothing.
func MaintainerGood(ctx context.Context, s *store, sh *shard) error {
	m, err := s.StartMaintainer(ctx)
	if err != nil {
		return err
	}
	sh.mnt = m
	return nil
}

// MaintainerLeak starts a shard's loop and forgets it: the goroutine
// outlives every handle to it.
func MaintainerLeak(ctx context.Context, s *store) error {
	m, err := s.StartMaintainer(ctx) // want `handle m \(from s.StartMaintainer\) in MaintainerLeak is never released \(no Close on any path\)`
	if err != nil || !m.Healthy() {
		return err
	}
	return nil
}

// LostCancel drops the WithTimeout cancel func: the context's timer and
// goroutine live until the deadline even when work returns early.
func LostCancel(parent context.Context, d time.Duration) error {
	ctx, cancel := context.WithTimeout(parent, d) // want `handle cancel \(from context.WithTimeout\) in LostCancel is never released \(no call on any path\)`
	return work(ctx)
}

// CancelGood defers the cancel: fine.
func CancelGood(parent context.Context) error {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	return work(ctx)
}

// work stands in for a context-consuming callee.
func work(ctx context.Context) error { return ctx.Err() }

// TimerGood observes the phase timer on its single exit.
func TimerGood() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// TimerPartial observes the timer on one path and drops it on the
// other, so that phase records zero for the early exit.
func TimerPartial(ok bool) time.Duration {
	start := time.Now() // want `timer start \(time.Now\(\)\) in TimerPartial is released on some paths but not when the return at line \d+`
	if ok {
		return 0
	}
	return time.Since(start)
}

// TimerNeverObserved starts a phase timer and observes it on no path,
// so the phase goes unmeasured.
func TimerNeverObserved() {
	probeStart := time.Now() // want `phase timer probeStart in TimerNeverObserved is started but never observed`
	_ = probeStart
}

// TimerSubObserves observes both timers, one through Sub.
func TimerSubObserves() time.Duration {
	fetchStart := time.Now()
	refineStart := time.Now()
	_ = time.Since(refineStart)
	return refineStart.Sub(fetchStart)
}

// TimerHandedOn passes its phase timer on instead of observing it:
// handing a time on measures nothing.
func TimerHandedOn() {
	parseStart := time.Now() // want `phase timer parseStart in TimerHandedOn is started but never observed`
	keep(parseStart)
}

func keep(time.Time) {}

// TimerInClosure observes its timer inside a closure, which counts.
func TimerInClosure() time.Duration {
	start := time.Now()
	elapsed := func() time.Duration { return time.Since(start) }
	return elapsed()
}

// NotATimer keeps a time.Now() that is not named as a phase timer
// (start, xxxStart), so it owes no observation.
func NotATimer() {
	deadline := time.Now()
	_ = deadline
}

// TimerErrExit drops the timer only on the error return: exempt, the
// phase was abandoned along with the work.
func TimerErrExit(ok bool) (time.Duration, error) {
	start := time.Now()
	if !ok {
		return 0, context.Canceled
	}
	return time.Since(start), nil
}

// Handoff locks and hands the locked counter to a callee that unlocks;
// the annotation moves the obligation.
//
// paircheck: ignore(c.mu)
func Handoff(c *counter) {
	c.mu.Lock()
	unlockLater(c)
}

// unlockLater releases the lock its caller acquired.
//
// paircheck: releases(c.mu)
func unlockLater(c *counter) { c.mu.Unlock() }

// reset claims to release a resource its body never touches.
//
// paircheck: releases(res)
func reset() {} // want "reset declares .paircheck: releases\(res\). but its body has no matching release call"
