package parallel

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// casFloat64 is a float64 accumulator safe for concurrent add via a CAS
// loop — the "atomic instructions to handle the sums shared between
// threads" strategy of §IV-C, kept here as the ablation's subject.
type casFloat64 struct{ bits uint64 }

func (a *casFloat64) add(v float64) {
	for {
		old := atomic.LoadUint64(&a.bits)
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&a.bits, old, nw) {
			return
		}
	}
}

// mutexVec accumulates whole vectors under one mutex, the strategy the
// paper found cheaper than per-element atomics for vector sums.
type mutexVec struct {
	mu  sync.Mutex
	sum []float64
}

func (a *mutexVec) add(v []float64) {
	a.mu.Lock()
	for i, x := range v {
		a.sum[i] += x
	}
	a.mu.Unlock()
}

// BenchmarkAblationAtomics reproduces the paper's §IV-C profiling
// decision: scalar sums shared between threads use CAS atomics, but the
// per-block *vector* addition in the CovSVD accumulation is cheaper under
// a single mutex than as a sequence of atomic adds.
func BenchmarkAblationAtomics(b *testing.B) {
	const vecLen = 64
	vec := make([]float64, vecLen)
	for i := range vec {
		vec[i] = float64(i)
	}

	b.Run("scalar-atomic", func(b *testing.B) {
		var acc casFloat64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				acc.add(1.5)
			}
		})
	})
	b.Run("scalar-mutex", func(b *testing.B) {
		var mu sync.Mutex
		var sum float64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				mu.Lock()
				sum += 1.5
				mu.Unlock()
			}
		})
		_ = sum
	})
	b.Run("vector-atomic-elementwise", func(b *testing.B) {
		accs := make([]casFloat64, vecLen)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				for i, v := range vec {
					accs[i].add(v)
				}
			}
		})
	})
	b.Run("vector-single-mutex", func(b *testing.B) {
		acc := &mutexVec{sum: make([]float64, vecLen)}
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				acc.add(vec)
			}
		})
	})
}

func BenchmarkForEach(b *testing.B) {
	work := func(i int) {
		x := float64(i)
		for k := 0; k < 50; k++ {
			x = x*1.0000001 + 1
		}
		_ = x
	}
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ForEach(1024, 0, work)
		}
	})
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ForEachDynamic(1024, 0, work)
		}
	})
}
