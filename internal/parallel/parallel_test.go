package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if w := Workers(4); w != 4 {
		t.Errorf("Workers(4) = %d", w)
	}
	if w := Workers(0); w != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d", w)
	}
	if w := Workers(-3); w != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", w)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 1000
		var hits = make([]int64, n)
		ForEach(n, workers, func(i int) {
			atomic.AddInt64(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
	// n <= 0 is a no-op.
	ForEach(0, 4, func(i int) { t.Fatal("called for n=0") })
	ForEach(-5, 4, func(i int) { t.Fatal("called for n<0") })
}

func TestForEachDynamicCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		n := 500
		var hits = make([]int64, n)
		ForEachDynamic(n, workers, func(i int) {
			atomic.AddInt64(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
	ForEachDynamic(0, 4, func(i int) { t.Fatal("called for n=0") })
}

func TestForEachStripesAreContiguous(t *testing.T) {
	// With striped scheduling, each worker sees a contiguous range; we
	// verify indirectly: the set of goroutine-observed predecessors in a
	// stripe are i-1 (no interleaving within a stripe is observable from
	// fn order per goroutine). Here we just confirm order within a single
	// worker run (workers=1) is strictly ascending.
	var last int64 = -1
	ok := true
	ForEach(100, 1, func(i int) {
		if int64(i) != last+1 {
			ok = false
		}
		last = int64(i)
	})
	if !ok {
		t.Error("single-worker ForEach not in order")
	}
}
