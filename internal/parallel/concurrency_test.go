package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestForEachEquivalenceProperty: for arbitrary (n, workers), ForEach and
// ForEachDynamic must both invoke fn on every index in [0, n) exactly
// once — the static-stripe and dynamic-claim schedules are observationally
// equivalent.
func TestForEachEquivalenceProperty(t *testing.T) {
	prop := func(rawN uint16, rawW uint8) bool {
		n := int(rawN % 500)
		workers := int(rawW%10) + 1
		static := make([]int32, n)
		dynamic := make([]int32, n)
		ForEach(n, workers, func(i int) { atomic.AddInt32(&static[i], 1) })
		ForEachDynamic(n, workers, func(i int) { atomic.AddInt32(&dynamic[i], 1) })
		for i := 0; i < n; i++ {
			if static[i] != 1 || dynamic[i] != 1 {
				t.Logf("n=%d workers=%d index %d visited static=%d dynamic=%d",
					n, workers, i, static[i], dynamic[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestForEachZeroAndNegative: degenerate ranges must not call fn.
func TestForEachZeroAndNegative(t *testing.T) {
	for _, n := range []int{0, -3} {
		called := int32(0)
		ForEach(n, 4, func(i int) { atomic.AddInt32(&called, 1) })
		ForEachDynamic(n, 4, func(i int) { atomic.AddInt32(&called, 1) })
		if called != 0 {
			t.Errorf("n=%d: fn called %d times", n, called)
		}
	}
}
