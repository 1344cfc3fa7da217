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
