// Package pool provides the index-ordered bounded worker pool shared by the
// recompilation pipeline (internal/core) and the benchmark harness
// (internal/bench). Both packages fan independent units of work — pipeline
// functions, bench cells — over a fixed worker count while collecting
// results by index, so their formatted/serialized outputs are independent of
// the worker count.
//
// The single error-ordering contract, shared by every caller:
//
//   - With one worker (or one item) the calls run serially in index order
//     and the first error stops the remaining ones — the historical serial
//     behavior, including early exit.
//   - With more workers every index runs to completion regardless of other
//     indices' failures, and the error returned is the erroring index with
//     the lowest value: the same error a serial run would have surfaced
//     first. Callers that preallocate per-index result slots therefore see
//     a fully populated result set on the non-erroring indices.
//
// A call that panics is recovered on the goroutine that ran it and counts
// as that index's error, a *PanicError, under the same contract: one bad
// unit of work fails its caller, never the process.
package pool

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the error of a call that panicked: its index, the value it
// panicked with, and the stack of the goroutine at the panic.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error renders the index, the value and the stack, so a command that
// prints the error shows where the panic happened.
func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: index %d panicked: %v\n\n%s", e.Index, e.Value, e.Stack)
}

// call runs f(w, i), turning a panic into a *PanicError.
func call(f func(w, i int) error, w, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return f(w, i)
}

// Clamp returns the worker count Run will actually use for n items: at least
// 1, at most n, and never more than workers (workers <= 0 is treated as 1 by
// Run's serial path, so callers resolving a default — e.g. runtime.NumCPU()
// — must do so before calling). Callers that allocate per-worker state (the
// tracer's per-worker spans tracks) size it with Clamp so worker indices
// passed to f always land in [0, Clamp(workers, n)).
func Clamp(workers, n int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Run executes f(w, i) for every i in [0, n) on up to workers goroutines.
// w identifies the worker making the call (always 0 on the serial path), so
// callers can keep per-worker state without locking. The error-ordering
// contract is documented on the package.
func Run(workers, n int, f func(w, i int) error) error {
	return RunCtx(nil, workers, n, f)
}

// RunCtx is Run with cooperative cancellation: once ctx is done, no new
// index is dispatched — indices already running finish normally, so f never
// observes a half-executed call — and, when no dispatched index returned
// its own error, ctx's error is returned so a cancelled caller cannot
// mistake a partial sweep for success. Per the error-ordering contract,
// an error from a dispatched index still wins over the cancellation error
// (it is what a serial run would have surfaced first). A nil or
// never-cancellable ctx is exactly Run.
func RunCtx(ctx context.Context, workers, n int, f func(w, i int) error) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	cancelled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if cancelled() {
				return ctx.Err()
			}
			if err := call(f, 0, i); err != nil {
				return err
			}
		}
		return nil
	}
	workers = Clamp(workers, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !cancelled() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = call(f, w, i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}
