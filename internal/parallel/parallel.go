// Package parallel provides the execution substrate the paper implements
// with multi-threaded CPU + GPU offload (§IV-C): a bounded worker pool
// with dynamic scheduling and cooperative cancellation. The paper's
// shared-sum strategies (compare-and-swap atomics for scalars, one mutex
// for whole vectors) survive only as the ablation benchmark in
// bench_test.go: their accumulation order follows goroutine scheduling,
// so the bit-reproducible predictor sums run serially in index order
// instead (internal/predictors).
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the number of workers to use when n <= 0: the number of
// logical CPUs.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachDynamic runs fn(i) for i in [0, n) with dynamic scheduling: each
// worker repeatedly claims the next index with an atomic counter. It suits
// irregular per-item cost (e.g. compressing buffers of varying content).
func ForEachDynamic(n, workers int, fn func(i int)) {
	ForEachDynamicCtx(context.Background(), n, workers, fn) //nolint:errcheck // background ctx never cancels
}

// ForEachDynamicCtx is ForEachDynamic with cooperative cancellation: once
// ctx is done, workers stop claiming new indices, finish the item they are
// already running, and drain. It blocks until every started fn call has
// returned (no goroutine outlives the call), then reports ctx.Err() — nil
// when all n items ran, the context error when the sweep was cut short.
// Indices not yet claimed at cancellation are never visited.
func ForEachDynamicCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	done := ctx.Done()
	if w == 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
