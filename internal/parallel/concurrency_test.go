package parallel

import (
	"context"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestForEachEquivalenceProperty: for arbitrary (n, workers),
// ForEachDynamic and ForEachDynamicCtx under a live context must both
// invoke fn on every index in [0, n) exactly once — the dynamic-claim
// schedule is observationally equivalent to a serial loop.
func TestForEachEquivalenceProperty(t *testing.T) {
	prop := func(rawN uint16, rawW uint8) bool {
		n := int(rawN % 500)
		workers := int(rawW%10) + 1
		plain := make([]int32, n)
		withCtx := make([]int32, n)
		ForEachDynamic(n, workers, func(i int) { atomic.AddInt32(&plain[i], 1) })
		if err := ForEachDynamicCtx(context.Background(), n, workers, func(i int) { atomic.AddInt32(&withCtx[i], 1) }); err != nil {
			t.Logf("n=%d workers=%d: %v", n, workers, err)
			return false
		}
		for i := 0; i < n; i++ {
			if plain[i] != 1 || withCtx[i] != 1 {
				t.Logf("n=%d workers=%d index %d visited %d times, %d with a context",
					n, workers, i, plain[i], withCtx[i])
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
		ForEachDynamic(n, 4, func(i int) { atomic.AddInt32(&called, 1) })
		if err := ForEachDynamicCtx(context.Background(), n, 4, func(i int) { atomic.AddInt32(&called, 1) }); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		if called != 0 {
			t.Errorf("n=%d: fn called %d times", n, called)
		}
	}
}
