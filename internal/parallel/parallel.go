// Package parallel provides the execution substrate the paper implements
// with multi-threaded CPU + GPU offload (§IV-C): a bounded worker pool with
// static and dynamic scheduling, and a deterministic ordered reduction.
// The paper's shared-sum strategies (compare-and-swap atomics for scalars,
// one mutex for whole vectors) survive only as the ablation benchmark in
// bench_test.go: their accumulation order follows goroutine scheduling,
// so the bit-reproducible hot paths use SumOrderedInto instead.
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

// ForEach runs fn(i) for i in [0, n) across at most workers goroutines.
// Work is distributed in contiguous stripes so adjacent indices land on the
// same worker, mirroring the paper's tiled iteration. It blocks until all
// work completes.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for g := 0; g < w; g++ {
		lo := g * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
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

// SumOrderedInto computes Σ term(i) for i in [0, n), n = len(scratch),
// deterministically: the terms are evaluated in parallel into the
// per-index slots of the caller's scratch (each slot written by exactly
// one worker) and then folded left to right in index order. The result is
// therefore bit-identical to the workers=1 serial sum for every worker
// count — floating-point reduction order never depends on goroutine
// scheduling, unlike a compare-and-swap accumulator's. Callers pool the
// scratch to keep the reduction allocation-free; its contents are
// overwritten.
func SumOrderedInto(scratch []float64, workers int, term func(i int) float64) float64 {
	ForEach(len(scratch), workers, func(i int) {
		scratch[i] = term(i)
	})
	var sum float64
	for _, v := range scratch {
		sum += v
	}
	return sum
}
