package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
)

// binCounter is the scratch state of the entropy estimators: an
// open-addressing int64 → count table for the quantized bins, and the
// cell slice of the equal-width histogram. Instances are recycled through
// binPool, so a warm estimator call allocates nothing.
//
// The table hashes a bin index under per-process random multipliers (see
// home), resolves collisions by linear probing and doubles once it is
// half full. occ lists the occupied slots in insertion order, so
// gathering the counts and resetting the table touch only those slots —
// a table grown by one fine-bound call costs nothing extra to reuse for a
// coarse one.
type binCounter struct {
	slots  []binSlot
	shift  uint  // 64 − log2(len(slots))
	occ    []int // occupied slot indices
	counts []int // sorted-count scratch of entropy
	hist   []int // histogram cells of HistogramEntropySeg
}

// binSlot is one table slot; n == 0 marks it empty.
type binSlot struct {
	key int64
	n   int
}

const minBinSlots = 64 // power of two

// maxPooledSlots caps the table a counter may take back into the pool:
// 2¹⁷ slots hold every bin of a 256×256 field at any bound, about 3 MiB
// with the scratch slices. A counter grown past it (a larger field at a
// fine bound) is left to the collector, so one such call does not raise
// the footprint of a pooled counter for good.
const maxPooledSlots = 1 << 17

// binMul1 and binMul2 are the hash's random odd multipliers, drawn once
// per process. Bin indices are ⌊x/ε⌋ of client data, so a fixed public
// hash would let a client choose values whose bins share one home slot
// and make every insert walk the whole cluster.
var binMul1, binMul2 = rand.Uint64() | 1, rand.Uint64() | 1

var binPool = sync.Pool{New: func() any {
	return &binCounter{slots: make([]binSlot, minBinSlots), shift: 64 - 6}
}}

// home returns the home slot of bin k: the top bits of binMul2·g(binMul1·k),
// where g folds the high half of the product into the low half. For a
// given binMul1 the inner map is a bijection, so the outer multiply-shift
// under a random odd binMul2 is a universal hash family. The inner,
// nonlinear step keeps the dense runs of bins a smooth field produces
// from reaching the outer multiply as an arithmetic progression, on which
// multiply-shift alone clusters under an unlucky multiplier.
func (b *binCounter) home(k int64) uint64 {
	x := uint64(k) * binMul1
	return ((x ^ x>>32) * binMul2) >> b.shift
}

// add counts one occurrence of bin k.
func (b *binCounter) add(k int64) {
	mask := uint64(len(b.slots) - 1)
	for i := b.home(k); ; i = (i + 1) & mask {
		s := &b.slots[i]
		if s.n == 0 {
			s.key, s.n = k, 1
			b.occ = append(b.occ, int(i))
			if 2*len(b.occ) > len(b.slots) {
				b.grow()
			}
			return
		}
		if s.key == k {
			s.n++
			return
		}
	}
}

// grow doubles the table and re-inserts every occupied slot.
func (b *binCounter) grow() {
	old := b.slots
	b.slots = make([]binSlot, 2*len(old))
	b.shift--
	mask := uint64(len(b.slots) - 1)
	for j, oi := range b.occ {
		s := old[oi]
		i := b.home(s.key)
		for b.slots[i].n != 0 {
			i = (i + 1) & mask
		}
		b.slots[i] = s
		b.occ[j] = int(i)
	}
}

// entropy returns the Shannon entropy in bits of the tallied bins over n
// values. The terms are summed in ascending count order, so the result
// depends only on the multiset of counts — never on hashing or insertion
// order — and equals the historical map-based estimator bit for bit.
func (b *binCounter) entropy(n int) float64 {
	cs := b.counts[:0]
	for _, i := range b.occ {
		cs = append(cs, b.slots[i].n)
	}
	slices.Sort(cs)
	b.counts = cs
	var h, lg float64
	fn := float64(n)
	prev := 0
	for _, c := range cs {
		p := float64(c) / fn
		if c != prev { // equal counts share one logarithm
			lg, prev = math.Log2(p), c
		}
		h -= p * lg
	}
	return h
}

// cells returns the zeroed histogram scratch of length bins.
func (b *binCounter) cells(bins int) []int {
	if cap(b.hist) < bins {
		b.hist = make([]int, bins)
	}
	b.hist = b.hist[:bins]
	clear(b.hist)
	return b.hist
}

// release empties the table and returns b to the pool, unless the table
// has grown past maxPooledSlots.
func (b *binCounter) release() {
	if len(b.slots) > maxPooledSlots {
		return
	}
	for _, i := range b.occ {
		b.slots[i].n = 0
	}
	b.occ = b.occ[:0]
	binPool.Put(b)
}
