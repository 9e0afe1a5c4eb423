package experiments

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestParallelForRunsAllCells checks the no-panic baseline: every cell runs
// exactly once.
func TestParallelForRunsAllCells(t *testing.T) {
	const n = 100
	var counts [n]int32
	_ = parallelForCtx(context.Background(), n, func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
}

// TestParallelForRepanicsWithCell checks the worker-panic contract: a panic in
// one cell surfaces on the caller's goroutine as a *CellPanic carrying the
// failing cell's index, the original value and a stack trace, while every
// other cell still completes.
func TestParallelForRepanicsWithCell(t *testing.T) {
	const n, bad = 64, 17
	boom := errors.New("boom")
	var ran [n]int32

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic in a cell did not propagate to the caller")
		}
		cp, ok := r.(*CellPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *CellPanic", r, r)
		}
		if cp.Cell != bad {
			t.Fatalf("panic attributed to cell %d, want %d", cp.Cell, bad)
		}
		if cp.Value != boom {
			t.Fatalf("panic value %v, want %v", cp.Value, boom)
		}
		if !strings.Contains(string(cp.Stack), "parallel_test.go") {
			t.Fatalf("stack does not point at the panicking cell:\n%s", cp.Stack)
		}
		if !strings.Contains(cp.Error(), "cell 17") || cp.String() != cp.Error() {
			t.Fatalf("CellPanic formatting broken: %q", cp.Error())
		}
		// The pool kept going: every non-panicking cell still ran.
		for i := int32(0); i < n; i++ {
			if i != bad && atomic.LoadInt32(&ran[i]) != 1 {
				t.Fatalf("cell %d did not run after cell %d panicked", i, bad)
			}
		}
	}()
	_ = parallelForCtx(context.Background(), n, func(i int) {
		if i == bad {
			panic(boom)
		}
		atomic.AddInt32(&ran[i], 1)
	})
	t.Fatal("parallelForCtx returned instead of re-panicking")
}

// TestParallelForFirstPanicWins checks that with several panicking cells
// exactly one CellPanic is reported and it matches one of the panic sites.
func TestParallelForFirstPanicWins(t *testing.T) {
	defer func() {
		cp, ok := recover().(*CellPanic)
		if !ok {
			t.Fatal("no *CellPanic recovered")
		}
		if cp.Cell%3 != 0 {
			t.Fatalf("reported cell %d never panicked", cp.Cell)
		}
		if cp.Value != "bad cell" {
			t.Fatalf("panic value %v", cp.Value)
		}
	}()
	_ = parallelForCtx(context.Background(), 30, func(i int) {
		if i%3 == 0 {
			panic("bad cell")
		}
	})
	t.Fatal("parallelForCtx returned instead of re-panicking")
}

// TestParallelForSerialPathPanics covers the workers<=1 serial path (n == 1
// forces it regardless of GOMAXPROCS).
func TestParallelForSerialPathPanics(t *testing.T) {
	defer func() {
		cp, ok := recover().(*CellPanic)
		if !ok {
			t.Fatal("serial path did not re-panic a *CellPanic")
		}
		if cp.Cell != 0 {
			t.Fatalf("cell = %d, want 0", cp.Cell)
		}
	}()
	_ = parallelForCtx(context.Background(), 1, func(i int) { panic("serial") })
	t.Fatal("parallelForCtx returned instead of re-panicking")
}

// TestParallelForZeroCells checks the degenerate sweep.
func TestParallelForZeroCells(t *testing.T) {
	called := false
	_ = parallelForCtx(context.Background(), 0, func(int) { called = true })
	if called {
		t.Fatal("cell function called for n=0")
	}
}

// TestParallelForCtxCancelStopsDispatch checks the cooperative-cancellation
// contract: once the context is cancelled mid-sweep, no new cells are
// dispatched (cells in flight finish), and the call reports ctx.Err().
func TestParallelForCtxCancelStopsDispatch(t *testing.T) {
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	err := parallelForCtx(ctx, n, func(i int) {
		if atomic.AddInt32(&ran, 1) == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// At most the cells already claimed by the worker pool when cancel landed
	// can still run: that is bounded by the worker count, far below n.
	if got := atomic.LoadInt32(&ran); int(got) >= n {
		t.Fatalf("cancellation did not stop dispatch: %d/%d cells ran", got, n)
	}
}

// TestParallelForCtxSerialCancel covers the workers<=1 serial path, where
// cancellation is checked before every cell: exactly the cells before the
// cancel run.
func TestParallelForCtxSerialCancel(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	err := parallelForCtx(ctx, 1000, func(i int) {
		ran++
		if ran == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 2 {
		t.Fatalf("ran %d cells after serial cancel, want 2", ran)
	}
}

// TestParallelForCtxUncancelled checks the nil-error baseline and that every
// cell runs exactly once under a live context.
func TestParallelForCtxUncancelled(t *testing.T) {
	const n = 64
	var counts [n]int32
	if err := parallelForCtx(context.Background(), n, func(i int) {
		atomic.AddInt32(&counts[i], 1)
	}); err != nil {
		t.Fatalf("err = %v", err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
}

// TestParallelForCtxPanicBeatsCancel checks a cell panic is still re-raised
// as *CellPanic even when the sweep is also cancelled.
func TestParallelForCtxPanicBeatsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		if _, ok := recover().(*CellPanic); !ok {
			t.Fatal("panic during a cancelled sweep was not re-raised as *CellPanic")
		}
	}()
	_ = parallelForCtx(ctx, 8, func(i int) {
		cancel()
		panic("boom")
	})
	t.Fatal("parallelForCtx returned instead of re-panicking")
}

// TestParallelForConcurrentCells checks cells genuinely overlap when workers
// are available, so a sweep actually uses the pool (guards against a silent
// regression to serial execution): the first batch of cells all block until
// every expected worker has arrived, which only terminates if they truly run
// concurrently.
func TestParallelForConcurrentCells(t *testing.T) {
	expected := runtime.GOMAXPROCS(0)
	const n = 4
	if expected > n {
		expected = n
	}
	if expected < 2 {
		t.Skip("needs >= 2 CPUs")
	}
	var mu sync.Mutex
	arrived := 0
	release := make(chan struct{})
	_ = parallelForCtx(context.Background(), n, func(i int) {
		mu.Lock()
		arrived++
		if arrived == expected {
			close(release)
		}
		mu.Unlock()
		<-release
	})
}
