// Package par provides the bounded worker pool used by the index build
// (§3.4 matrix/eigenvalue computation per record) and the collection's
// shard scatter. It is deliberately minimal: a fixed number of
// goroutines pull item indexes off a shared atomic counter, the first
// error (or context cancellation) stops the pool promptly, and callers
// keep determinism by writing results into per-index slots and merging
// them in order afterwards.
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrPanic is the sentinel wrapped by every PanicError, so callers can
// classify a recovered worker panic with errors.Is(err, par.ErrPanic)
// without depending on the concrete type.
var ErrPanic = errors.New("par: panic in worker")

// PanicError is a panic recovered inside a worker, converted into an
// error: the pool must never let a panicking work item kill the whole
// process, but the caller needs the original value and stack to report
// it. It unwraps to ErrPanic.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%v: %v\n%s", ErrPanic, e.Value, e.Stack)
}

func (e *PanicError) Unwrap() error { return ErrPanic }

// call invokes fn(i), converting a panic into a *PanicError so the pool
// (and the sequential path) report it as the first error instead of
// crashing the process.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Workers resolves a requested worker count: values below 1 mean "one
// worker per available CPU" (GOMAXPROCS).
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// seqThreshold is the item count below which Do runs inline: spawning
// goroutines for a handful of items costs more than it saves.
const seqThreshold = 4

// Do runs fn(i) for every i in [0, n), using at most workers goroutines
// (values below 1 mean GOMAXPROCS). It returns the first error any call
// produced, or ctx.Err() if the context was cancelled; either stops the
// remaining work promptly (in-flight calls finish, queued items are
// dropped). A panicking fn never crashes the process: the panic is
// recovered inside the worker and reported as a *PanicError (test with
// errors.Is against ErrPanic). fn must be safe to call from multiple
// goroutines; writes it makes to distinct per-index slots need no
// further synchronization, as Do establishes a happens-before edge
// between every fn call and its return.
func Do(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 || n < seqThreshold {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := call(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if pctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := call(fn, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}
