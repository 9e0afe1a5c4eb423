package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// CellPanic is the panic value parallelForCtx re-raises on the caller's
// goroutine when a worker panics: it names the failing cell and preserves the
// original panic value and stack, so a crashed sweep says which (workload,
// policy) cell died instead of killing the process with an unattributed
// goroutine trace.
type CellPanic struct {
	// Cell is the index passed to the cell function that panicked.
	Cell int
	// Value is the original panic value.
	Value any
	// Stack is the worker's stack at the point of the panic.
	Stack []byte
}

// Error implements error.
func (p *CellPanic) Error() string {
	return fmt.Sprintf("experiments: cell %d panicked: %v\n%s", p.Cell, p.Value, p.Stack)
}

// String implements fmt.Stringer.
func (p *CellPanic) String() string { return p.Error() }

// parallelForCtx runs f(0..n-1) on up to GOMAXPROCS worker goroutines and
// waits for completion. Every experiment cell builds its own fully
// independent simulator state (policies are created per cell, the frozen NN
// is cloned), so cells can execute concurrently without changing any result.
//
// A panic inside f does not crash the worker pool: the first panic is
// captured (with its cell index and stack), remaining cells still run, and
// the panic is re-raised on the caller's goroutine as a *CellPanic after all
// workers finish.
//
// Cancellation is cooperative: ctx is checked between cells, so a cancelled
// sweep stops dispatching promptly while cells already in flight run to
// completion (cells are not preemptible — a partial simulation has no
// meaningful result). It returns ctx.Err() when cancelled, nil otherwise. A
// cell panic takes precedence over cancellation.
func parallelForCtx(ctx context.Context, n int, f func(i int)) error {
	var (
		panicOnce sync.Once
		cellPanic *CellPanic
	)
	runCell := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() {
					cellPanic = &CellPanic{Cell: i, Value: r, Stack: debug.Stack()}
				})
			}
		}()
		f(i)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			runCell(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					// Drain the channel but skip the work once cancelled.
					if ctx.Err() == nil {
						runCell(i)
					}
				}
			}()
		}
	feed:
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(next)
		wg.Wait()
	}
	if cellPanic != nil {
		panic(cellPanic)
	}
	return ctx.Err()
}
