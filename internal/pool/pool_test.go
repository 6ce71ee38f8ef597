package pool_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/pool"
)

func TestClamp(t *testing.T) {
	for _, tc := range []struct{ workers, n, want int }{
		{0, 5, 1}, {-3, 5, 1}, {1, 5, 1}, {8, 5, 5}, {4, 100, 4}, {2, 0, 1},
	} {
		if got := pool.Clamp(tc.workers, tc.n); got != tc.want {
			t.Errorf("Clamp(%d, %d) = %d, want %d", tc.workers, tc.n, got, tc.want)
		}
	}
}

func TestRunCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 53
		var done [n]atomic.Int32
		if err := pool.Run(workers, n, func(w, i int) error {
			done[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range done {
			if got := done[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunSerialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	err := pool.Run(1, 10, func(w, i int) error {
		ran++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran != 4 {
		t.Fatalf("serial run executed %d items after error at index 3, want 4", ran)
	}
}

// TestRunParallelReturnsLowestIndexError pins the error-ordering contract:
// the parallel path runs everything and surfaces the lowest-index error —
// the one a serial run would have reported first.
func TestRunParallelReturnsLowestIndexError(t *testing.T) {
	const n = 40
	var ran atomic.Int32
	err := pool.Run(8, n, func(w, i int) error {
		ran.Add(1)
		if i == 7 || i == 31 {
			return fmt.Errorf("err-%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "err-7" {
		t.Fatalf("err = %v, want err-7 (lowest erroring index)", err)
	}
	if got := ran.Load(); got != n {
		t.Fatalf("parallel run executed %d of %d items", got, n)
	}
}

// TestRunCtxPreCancelled: an already-cancelled context dispatches nothing
// and the cancellation error surfaces, on both the serial and parallel
// paths.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		var ran atomic.Int32
		err := pool.RunCtx(ctx, workers, 50, func(w, i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got != 0 {
			t.Fatalf("workers=%d: %d items ran under a pre-cancelled context", workers, got)
		}
	}
}

// TestRunCtxStopsDispatching: cancelling mid-sweep stops new dispatches and
// returns the context's error when no dispatched index failed.
func TestRunCtxStopsDispatching(t *testing.T) {
	const n = 10_000
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := pool.RunCtx(ctx, 4, n, func(w, i int) error {
		if ran.Add(1) == 16 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers already past their cancellation check may finish one more
	// item each, but the sweep must not run to completion.
	if got := ran.Load(); got >= n {
		t.Fatalf("all %d items ran despite cancellation at item 16", n)
	}
}

// TestRunCtxDispatchedErrorWins: per the error-ordering contract, an error
// from a dispatched index beats the cancellation error.
func TestRunCtxDispatchedErrorWins(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	err := pool.RunCtx(ctx, 4, 100, func(w, i int) error {
		if i == 2 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the dispatched index's error", err)
	}
}

// TestRunCtxNilIsRun: a nil context is exactly Run.
func TestRunCtxNilIsRun(t *testing.T) {
	var ran atomic.Int32
	if err := pool.RunCtx(nil, 4, 25, func(w, i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 25 {
		t.Fatalf("ran %d of 25", ran.Load())
	}
}

func TestRunWorkerIndexInRange(t *testing.T) {
	const workers, n = 6, 100
	max := pool.Clamp(workers, n)
	var bad atomic.Int32
	if err := pool.Run(workers, n, func(w, i int) error {
		if w < 0 || w >= max {
			bad.Add(1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d calls saw a worker index outside [0, %d)", bad.Load(), max)
	}
}

// TestRunContainsPanics: a call that panics becomes its index's
// *PanicError, carrying the value and the panicking goroutine's stack, and
// the error-ordering contract holds around it: the serial path runs the
// indices before it and stops, the parallel path runs every other index.
func TestRunContainsPanics(t *testing.T) {
	const n, bad = 12, 5
	for _, workers := range []int{1, 4} {
		var ran [n]atomic.Int32
		err := pool.Run(workers, n, func(w, i int) error {
			ran[i].Add(1)
			if i == bad {
				panicAt(i)
			}
			return nil
		})
		var pe *pool.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want a *PanicError", workers, err)
		}
		if pe.Index != bad || pe.Value != "task 5" {
			t.Errorf("workers=%d: index %d value %v, want %d and %q", workers, pe.Index, pe.Value, bad, "task 5")
		}
		if !strings.Contains(string(pe.Stack), "pool_test.panicAt") {
			t.Errorf("workers=%d: stack does not name the panicking function:\n%s", workers, pe.Stack)
		}
		for i := range ran {
			want := int32(1)
			if workers == 1 && i > bad {
				want = 0 // the serial path stops at the first error
			}
			if got := ran[i].Load(); got != want {
				t.Errorf("workers=%d: index %d ran %d times, want %d", workers, i, got, want)
			}
		}
	}
}

func panicAt(i int) { panic(fmt.Sprintf("task %d", i)) }
