package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 100
		var hits [n]atomic.Int32
		err := Do(context.Background(), workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestDoReturnsFirstError(t *testing.T) {
	boom := errors.New("boom")
	err := Do(context.Background(), 4, 50, func(i int) error {
		if i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestDoObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := Do(ctx, 4, 1000, func(i int) error {
		ran.Add(1)
		return nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers check the context before pulling work, so a pre-cancelled
	// pool runs at most a few in-flight calls, not the full range.
	if n := ran.Load(); n > 100 {
		t.Fatalf("ran %d items on a cancelled context", n)
	}
}

// TestDoCancelledMidRunLeavesNoWorker: a pool whose context is cancelled
// while items run returns ctx.Err() only after its in-flight calls
// finish, and leaves none of its workers behind.
func TestDoCancelledMidRunLeavesNoWorker(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var running atomic.Int32
	err := Do(ctx, 4, 1000, func(i int) error {
		running.Add(1)
		defer running.Add(-1)
		switch {
		case i < 3:
			// Three workers hold an item until the cancel, then take a
			// moment to wind down.
			<-ctx.Done()
			time.Sleep(20 * time.Millisecond)
		case i == 10:
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("Do returned with %d calls still running", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Do, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("non-positive requests must resolve to at least one worker")
	}
	if Workers(5) != 5 {
		t.Fatalf("Workers(5) = %d", Workers(5))
	}
}
