package main

import (
	"context"
	"testing"
	"time"
)

func TestGateAcquireRelease(t *testing.T) {
	g := newGate(2)
	ctx := context.Background()
	if err := g.Acquire(ctx, 1); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if err := g.Acquire(ctx, 1); err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	if in, capacity := g.Load(); in != 2 || capacity != 2 {
		t.Fatalf("Load = %d/%d, want 2/2", in, capacity)
	}
	g.Release(1)
	g.Release(1)
	if in, _ := g.Load(); in != 0 {
		t.Fatalf("in-flight after release = %d, want 0", in)
	}
}

func TestGateTimeoutWhenFull(t *testing.T) {
	g := newGate(1)
	if err := g.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx, 1); err != context.DeadlineExceeded {
		t.Fatalf("acquire on full gate = %v, want DeadlineExceeded", err)
	}
	// The timed-out waiter must not leak: releasing must leave the gate
	// empty and usable.
	g.Release(1)
	if in, _ := g.Load(); in != 0 {
		t.Fatalf("in-flight after timeout + release = %d, want 0", in)
	}
	if err := g.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("acquire after recovery: %v", err)
	}
}

func TestGateBlocksUntilReleased(t *testing.T) {
	g := newGate(1)
	if err := g.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- g.Acquire(context.Background(), 1) }()
	select {
	case err := <-done:
		t.Fatalf("second acquire returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.Release(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("acquire after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never admitted after release")
	}
}

// TestGateTryAcquire: TryAcquire grants exactly when Acquire would
// without waiting — room, and nobody queued — so a request that finds a
// waiter ahead of it queues behind, even with room for itself.
func TestGateTryAcquire(t *testing.T) {
	g := newGate(2)
	if !g.TryAcquire(1) {
		t.Fatal("TryAcquire on an empty gate failed")
	}
	if g.TryAcquire(2) {
		t.Fatal("TryAcquire granted past capacity")
	}
	heavy := make(chan error, 1)
	go func() { heavy <- g.Acquire(context.Background(), 2) }()
	for {
		g.mu.Lock()
		queued := len(g.waiters)
		g.mu.Unlock()
		if queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if g.TryAcquire(1) {
		t.Fatal("TryAcquire overtook a queued waiter")
	}
	g.Release(1)
	if err := <-heavy; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	g.Release(2)
	if in, _ := g.Load(); in != 0 {
		t.Fatalf("in-flight after releases = %d, want 0", in)
	}
}

func TestGateClampsOverweight(t *testing.T) {
	g := newGate(1)
	// Weight 2 against capacity 1 degrades to taking the whole gate
	// instead of blocking forever.
	if err := g.Acquire(context.Background(), 2); err != nil {
		t.Fatalf("overweight acquire: %v", err)
	}
	if in, _ := g.Load(); in != 1 {
		t.Fatalf("in-flight = %d, want clamped 1", in)
	}
	g.Release(2)
	if in, _ := g.Load(); in != 0 {
		t.Fatalf("in-flight after clamped release = %d, want 0", in)
	}
}

func TestGateFIFOHeavyWaiterNotStarved(t *testing.T) {
	g := newGate(2)
	ctx := context.Background()
	if err := g.Acquire(ctx, 2); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	heavy := make(chan error, 1)
	go func() { heavy <- g.Acquire(ctx, 2) }()
	// Give the heavy waiter time to enqueue at the head.
	time.Sleep(10 * time.Millisecond)
	light := make(chan error, 1)
	go func() { light <- g.Acquire(ctx, 1) }()
	g.Release(2)
	select {
	case err := <-heavy:
		if err != nil {
			t.Fatalf("heavy acquire: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("heavy head-of-line waiter starved by lighter arrival")
	}
	select {
	case <-light:
		t.Fatal("light waiter admitted ahead of available capacity")
	default:
	}
	g.Release(2)
	if err := <-light; err != nil {
		t.Fatalf("light acquire: %v", err)
	}
	g.Release(1)
}
