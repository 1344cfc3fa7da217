package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
)

// binCounter is the scratch state of the entropy estimators: the bin
// counts of the quantized entropy, the count-of-counts its entropy sum
// runs over, and the cell slice of the equal-width histogram. Instances
// are recycled through binPool, so a warm estimator call allocates
// nothing.
//
// Bins are counted one of two ways (see QuantizedEntropySeg). When they
// span a narrow range, dense holds one count per bin of the range,
// indexed by the bin's offset from the lowest. Otherwise an
// open-addressing int64 → count table holds them: a hash under
// per-process random multipliers (see home) picks the home slot,
// collisions probe linearly, and the table doubles once it is half
// full. occ lists the occupied slots in insertion order, so gathering
// the counts and resetting the table touch only those slots — a table
// grown by one fine-bound call costs nothing extra to reuse for a
// coarse one.
type binCounter struct {
	slots []binSlot
	shift uint     // 64 − log2(len(slots))
	occ   []int    // occupied slot indices
	dense []uint32 // direct-indexed bin counts; all zero between calls
	cc    []int    // cc[c] bins hold c values, c < len(cc); all zero between calls
	big   []int    // counts of len(cc) or more, fewer than n/maxTallied of them
	hist  []int    // histogram cells of HistogramEntropySeg
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

// maxPooledDense caps the dense array the same way: 2¹⁹ uint32 counts,
// the 2 MiB of a table at maxPooledSlots.
const maxPooledDense = 1 << 19

// densePerValue bounds the dense path: it runs when the bins span at
// most densePerValue·n of them. There the array's 8 × 4 B per value
// equal the 2 slots × 16 B per value of a table in which every value has
// its own bin, so the dense path never holds more memory than the table
// would.
const densePerValue = 8

// maxTallied bounds the count-of-counts array: counts below it are
// tallied by index, larger ones (fewer than n/maxTallied) are listed
// and sorted, so the array stays 256 KiB whatever the field size.
const maxTallied = 1 << 15

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

// denseCounts returns the zeroed dense array of length w.
func (b *binCounter) denseCounts(w int) []uint32 {
	if cap(b.dense) < w {
		b.dense = make([]uint32, w)
	}
	return b.dense[:w]
}

// tallyDense moves the counts of the dense array d into the
// count-of-counts, zeroing d, and returns the largest count.
func (b *binCounter) tallyDense(d []uint32, n int) int {
	cc := b.tallies(n)
	var maxC uint32
	for i, c := range d {
		d[i] = 0
		maxC = max(maxC, c)
		if uint64(c) < uint64(len(cc)) {
			cc[c]++
		} else {
			b.big = append(b.big, int(c))
		}
	}
	cc[0] = 0 // the empty bins
	return int(maxC)
}

// tallyTable adds the counts of the table to the count-of-counts and
// returns the largest count.
func (b *binCounter) tallyTable(n int) int {
	cc := b.tallies(n)
	maxC := 0
	for _, i := range b.occ {
		c := b.slots[i].n
		maxC = max(maxC, c)
		if c < len(cc) {
			cc[c]++
		} else {
			b.big = append(b.big, c)
		}
	}
	return maxC
}

// tallies returns the zeroed count-of-counts array, long enough to index
// every count of n values below maxTallied.
func (b *binCounter) tallies(n int) []int {
	if need := min(n, maxTallied-1) + 1; len(b.cc) < need {
		b.cc = make([]int, need)
	}
	return b.cc
}

// entropy returns the Shannon entropy in bits of the tallied counts over
// n values, maxC the largest, and leaves the count-of-counts zero. The
// terms are summed in ascending count order — cc by index, then the
// sorted large counts — and a count held by m bins contributes its term
// m times in a row. That is the sequence of the historical map-based
// estimator, which sorted the counts, so the result depends only on the
// multiset of counts, never on the bins, hashing or insertion order, and
// keeps its bits.
func (b *binCounter) entropy(n, maxC int) float64 {
	var h float64
	fn := float64(n)
	for c := 1; c <= maxC && c < len(b.cc); c++ {
		m := b.cc[c]
		if m == 0 {
			continue
		}
		b.cc[c] = 0
		p := float64(c) / fn
		lg := math.Log2(p)
		for ; m > 0; m-- {
			h -= p * lg
		}
	}
	slices.Sort(b.big)
	var lg float64
	prev := 0
	for _, c := range b.big {
		p := float64(c) / fn
		if c != prev { // equal counts share one logarithm
			lg, prev = math.Log2(p), c
		}
		h -= p * lg
	}
	b.big = b.big[:0]
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

// release empties the table and returns b to the pool, unless its
// table has grown past maxPooledSlots or its dense array past
// maxPooledDense.
func (b *binCounter) release() {
	if len(b.slots) > maxPooledSlots || cap(b.dense) > maxPooledDense {
		return
	}
	for _, i := range b.occ {
		b.slots[i].n = 0
	}
	b.occ = b.occ[:0]
	binPool.Put(b)
}
