// Package featcache is the shared, race-safe predictor-feature cache of
// the estimation pipeline. The five statistical predictors are
// compressor-independent (§IV-B), so every consumer that evaluates the
// same buffer — per-compressor proposed models in use case B, k-fold
// evaluation, the batch-estimation engine, every probe of an ε search
// over HTTP — should share one cache and pay for each buffer's features
// exactly once.
//
// The cache preserves the paper's §IV-C parallel substrate under
// concurrency and stays bounded in a long-running server:
//
//   - Content addressing: an entry is keyed by what a buffer holds — its
//     shape and a 128-bit digest of its raw bytes — not by where it
//     lives, so two requests carrying the same values share one entry,
//     and the cache stores features only, never a caller's buffer.
//   - Sharding: entries are spread over a fixed set of shards picked from
//     the digest (and error-bound bits), so concurrent lookups of
//     different buffers rarely contend on the same mutex.
//   - Singleflight admission: the first goroutine to request a missing
//     entry installs a placeholder under the shard lock and computes the
//     features outside it; later requesters (including concurrent first
//     requests for the same key) block on the placeholder instead of
//     recomputing. Each (content, bound) pair is therefore computed once
//     while resident, no matter how many goroutines race on it.
//   - A byte budget: each shard holds at most its even share of MaxBytes.
//     An insert that would exceed the share evicts completed entries,
//     whichever the shard map's iteration reaches first.
//
// Dataset features (the four error-bound-agnostic predictors) and the
// error-bound-specific distortion are cached separately, mirroring the
// dset_predictors / eb_predictors split of Algorithm 2.
package featcache

import (
	"context"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/parallel"
	"github.com/crestlab/crest/internal/predictors"
)

// NumShards is the shard count; a power of two keeps the index a shift
// of the digest. 32 shards keep contention negligible at typical worker
// counts.
const NumShards = 1 << shardBits

const shardBits = 5

// MaxBytes is the byte budget of one cache, split evenly over its
// shards. Every entry is charged entryOverhead; in-flight entries are
// never evicted, so a shard exceeds its share only while every other
// entry in it is still being computed.
const MaxBytes = 32 << 20

// entryOverhead is the charge of one entry: the entry itself (192 bytes
// on amd64) and its share of the shard map. Heap growth per resident
// entry measured 273–317 bytes on amd64 with Go 1.24, over 200 to 105k
// entries; the charge rounds up so it does not undercount the heap.
const entryOverhead = 320

// DatasetFunc computes the error-bound-agnostic predictors of a buffer;
// the default is predictors.ComputeDataset. Replaceable for fault
// injection (internal/chaos) and testing.
type DatasetFunc func(*grid.Buffer, predictors.Config) (predictors.DatasetFeatures, error)

// EBFunc computes the error-bound-specific distortion; the default is
// predictors.ComputeEB.
type EBFunc func(*grid.Buffer, float64, predictors.Config) (float64, error)

// Cache is a sharded, mutex-protected, singleflight, byte-bounded feature
// cache. The zero value is not usable; construct with New.
//
// Failure semantics: a computation that returns an error or panics does
// NOT leave a cached entry behind. Goroutines already waiting on that
// in-flight computation observe its error, but the key is removed (and
// its byte charge refunded) before the waiters are released, so the next
// request for it is a fresh miss that retries the computation. Panics
// inside the compute functions are recovered and surfaced as errors
// wrapping crerr.ErrInvalidBuffer, so a malformed buffer can never wedge
// a singleflight slot or kill the process.
type Cache struct {
	cfg         predictors.Config
	computeDset DatasetFunc
	computeEB   EBFunc
	maxBytes    int64 // MaxBytes; package tests lower it to force eviction
	shards      [NumShards]shard

	// Counters are atomics so Stats never takes shard locks. hits and
	// misses are indexed by half.
	hits, misses [2]atomic.Uint64
	dedupWaits   atomic.Uint64
	failures     atomic.Uint64
	evictions    atomic.Uint64
	bytes        atomic.Int64

	// Registry mirrors of the counters above, resolved once at
	// construction so the hot path never takes the registry mutex.
	reg obsCounters
}

// obsCounters are the cache's handles into the observability registry.
type obsCounters struct {
	hits, misses [2]*obs.Counter
	dedupWaits   *obs.Counter
	failures     *obs.Counter
	evictions    *obs.Counter
}

func newObsCounters(r *obs.Registry) obsCounters {
	return obsCounters{
		hits:       [2]*obs.Counter{r.Counter("featcache_dataset_hits_total"), r.Counter("featcache_eb_hits_total")},
		misses:     [2]*obs.Counter{r.Counter("featcache_dataset_misses_total"), r.Counter("featcache_eb_misses_total")},
		dedupWaits: r.Counter("featcache_dedup_waits_total"),
		failures:   r.Counter("featcache_failures_total"),
		evictions:  r.Counter("featcache_evictions_total"),
	}
}

// The two halves of the cache, indexing Cache.hits and Cache.misses.
const (
	dsetHalf = 0
	ebHalf   = 1
)

type shard struct {
	mu      sync.Mutex
	entries map[slot]*entry
}

// key identifies a buffer by content: its shape and two 64-bit maphash
// digests of its raw bytes under independent per-process seeds — 128
// bits that clients cannot predict.
type key struct {
	rows, cols int
	h1, h2     uint64
}

var seed1, seed2 = maphash.MakeSeed(), maphash.MakeSeed()

// keyOf digests buf. A nil buffer, or one whose data does not fill its
// shape, has no key (ok false): it bypasses the cache, and the compute
// function's validation reports the typed error.
func keyOf(buf *grid.Buffer) (k key, ok bool) {
	if buf == nil || len(buf.Data) != buf.Rows*buf.Cols {
		return key{}, false
	}
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf.Data))), 8*len(buf.Data))
	return key{buf.Rows, buf.Cols, maphash.Bytes(seed1, raw), maphash.Bytes(seed2, raw)}, true
}

// slot names one entry: a content key in one half of the cache, plus
// the canonical bound bits for the distortion half.
type slot struct {
	k    key
	half uint8
	bits uint64 // EBBits of the bound; 0 in the dataset half
}

// shard picks the slot's shard from the top bits of the digest, mixed
// with the bound so one buffer's distortion entries spread out.
func (sl slot) shard() int {
	return int((sl.k.h1 ^ sl.bits*0x9e3779b97f4a7c15) >> (64 - shardBits))
}

// entry is a singleflight slot. done is released once df, d and err are
// final; a WaitGroup rather than a channel keeps the slot a single
// allocation.
type entry struct {
	done sync.WaitGroup
	df   predictors.DatasetFeatures
	d    float64
	err  error

	// Guarded by the shard lock.
	slot  slot
	ready bool // computed successfully; only ready entries are evicted
}

// New returns an empty cache computing features with cfg.
func New(cfg predictors.Config) *Cache {
	return NewWithCompute(cfg, nil, nil)
}

// NewWithCompute is New with replaceable compute functions (nil selects
// the predictors defaults). It exists for the fault-injection harness and
// for tests that need to provoke errors, panics or poisoned features on
// the feature path.
func NewWithCompute(cfg predictors.Config, dset DatasetFunc, eb EBFunc) *Cache {
	if dset == nil {
		dset = predictors.ComputeDataset
	}
	if eb == nil {
		eb = predictors.ComputeEB
	}
	c := &Cache{cfg: cfg, computeDset: dset, computeEB: eb, maxBytes: MaxBytes,
		reg: newObsCounters(obs.Default())}
	for i := range c.shards {
		c.shards[i].entries = make(map[slot]*entry)
	}
	return c
}

// SetObs re-points the cache's registry mirror at r (nil selects the
// process default). Call before the cache is shared across goroutines;
// the internal Stats counters are unaffected.
func (c *Cache) SetObs(r *obs.Registry) {
	if r == nil {
		r = obs.Default()
	}
	c.reg = newObsCounters(r)
}

// Config returns the predictor configuration the cache computes with.
func (c *Cache) Config() predictors.Config { return c.cfg }

// EBBits canonicalizes an error bound for keying: ±0 fold together and
// every NaN collapses to a single bit pattern, so lookups that compare
// equal (or are equally meaningless) share one cache entry.
func EBBits(eps float64) uint64 {
	if eps == 0 { // true for both +0 and −0
		return 0
	}
	if math.IsNaN(eps) {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(eps)
}

// ---------------------------------------------------------------------------
// Lookups

// Dataset returns the four error-bound-agnostic predictors of buf,
// computing them on first use. Concurrent first requests compute once.
// A failed or panicking computation is reported to its requesters but is
// not retained: the key misses again (and recomputes) on the next call.
func (c *Cache) Dataset(buf *grid.Buffer) (predictors.DatasetFeatures, error) {
	k, ok := keyOf(buf)
	return c.dataset(buf, k, ok)
}

// Distortion returns the error-bound-specific generic distortion of buf at
// eps, computing it on first use. Failure semantics match Dataset: errors
// and recovered panics are surfaced but never cached.
func (c *Cache) Distortion(buf *grid.Buffer, eps float64) (float64, error) {
	k, ok := keyOf(buf)
	return c.distortion(buf, eps, k, ok)
}

// Features returns the full five-feature covariate vector of buf at eps,
// assembled from the two cached halves.
func (c *Cache) Features(buf *grid.Buffer, eps float64) ([]float64, error) {
	k, ok := keyOf(buf)
	df, err := c.dataset(buf, k, ok)
	if err != nil {
		return nil, err
	}
	d, err := c.distortion(buf, eps, k, ok)
	if err != nil {
		return nil, err
	}
	return predictors.Combine(df, d).Vector(), nil
}

// FeaturesInto appends the five-feature vector of buf at eps to dst and
// returns the extended slice — the zero-allocation variant of Features
// for callers that recycle a per-worker buffer. On a warm cache the
// call performs no allocation at all, which is what keeps the saturated
// batch hot path at zero steady-state allocs/op.
func (c *Cache) FeaturesInto(dst []float64, buf *grid.Buffer, eps float64) ([]float64, error) {
	k, ok := keyOf(buf)
	df, err := c.dataset(buf, k, ok)
	if err != nil {
		return dst, err
	}
	d, err := c.distortion(buf, eps, k, ok)
	if err != nil {
		return dst, err
	}
	return append(dst, df.SD, df.SC, df.CodingGain, df.CovSVDTrunc, d), nil
}

func (c *Cache) dataset(buf *grid.Buffer, k key, ok bool) (predictors.DatasetFeatures, error) {
	e := c.lookup(slot{k: k, half: dsetHalf}, ok, func(e *entry) {
		e.df, e.err = c.computeDset(buf, c.cfg)
	})
	return e.df, e.err
}

func (c *Cache) distortion(buf *grid.Buffer, eps float64, k key, ok bool) (float64, error) {
	e := c.lookup(slot{k: k, half: ebHalf, bits: EBBits(eps)}, ok, func(e *entry) {
		e.d, e.err = c.computeEB(buf, eps, c.cfg)
	})
	return e.d, e.err
}

// lookup runs the singleflight protocol for sl. A hit returns the
// resident entry once its computation has finished. A miss installs an
// in-flight entry, runs compute into it outside the lock, then charges
// and publishes it — or, on failure, removes it and refunds its charge —
// before releasing any waiter. Without a key (keyed false) compute runs
// uncached.
func (c *Cache) lookup(sl slot, keyed bool, compute func(*entry)) *entry {
	if !keyed {
		e := new(entry)
		count(&c.misses[sl.half], c.reg.misses[sl.half])
		c.run(e, compute)
		return e
	}
	s := &c.shards[sl.shard()]
	s.mu.Lock()
	if e, ok := s.entries[sl]; ok {
		inFlight := !e.ready
		s.mu.Unlock()
		count(&c.hits[sl.half], c.reg.hits[sl.half])
		// A hit on a still-in-flight entry is a singleflight dedup: this
		// goroutine waits on another's computation instead of repeating it.
		// A ready entry's results were published under the lock just taken.
		if inFlight {
			count(&c.dedupWaits, c.reg.dedupWaits)
			e.done.Wait()
		}
		return e
	}
	e := &entry{slot: sl}
	e.done.Add(1)
	c.evictFor(s)
	s.entries[sl] = e
	c.bytes.Add(entryOverhead)
	s.mu.Unlock()
	count(&c.misses[sl.half], c.reg.misses[sl.half])

	c.run(e, compute)
	s.mu.Lock()
	if e.err != nil {
		// Remove the failed entry before releasing waiters so no later
		// caller can observe (and be poisoned by) a dead singleflight
		// slot: the failure is retryable.
		c.drop(s, e)
	} else {
		e.ready = true
	}
	s.mu.Unlock()
	e.done.Done()
	return e
}

// run calls compute on e, recovering a panic into e.err, and counts a
// failure.
func (c *Cache) run(e *entry, compute func(*entry)) {
	func() {
		defer func() {
			if v := recover(); v != nil {
				e.err = crerr.Recovered(v, crerr.ErrInvalidBuffer)
			}
		}()
		compute(e)
	}()
	if e.err != nil {
		count(&c.failures, c.reg.failures)
	}
}

// count bumps one cache counter and its registry mirror.
func count(n *atomic.Uint64, mirror *obs.Counter) {
	n.Add(1)
	mirror.Inc()
}

// ---------------------------------------------------------------------------
// Byte budget and eviction. Every method below runs under s.mu.

// drop removes e from its shard and refunds its charge.
func (c *Cache) drop(s *shard, e *entry) {
	delete(s.entries, e.slot)
	c.bytes.Add(-entryOverhead)
}

// evictFor evicts completed entries until one more entry fits in the
// shard's share of the budget, taking whichever the map's iteration
// reaches first and skipping in-flight ones. If every entry is in flight,
// the insert proceeds over budget.
func (c *Cache) evictFor(s *shard) {
	limit := c.maxBytes / NumShards
	for int64(len(s.entries)+1)*entryOverhead > limit {
		var victim *entry
		for _, e := range s.entries {
			if e.ready {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		c.drop(s, victim)
		count(&c.evictions, c.reg.evictions)
	}
}

// Warm fills the cache for every buffer × bound pair across a bounded
// worker pool. It is the pre-pass that lets training-data collection and
// k-fold evaluation scale with cores instead of faulting features in one
// at a time. On failure every failing buffer index is reported (a
// crerr.AggregateError), not just the lowest.
func (c *Cache) Warm(bufs []*grid.Buffer, epses []float64, workers int) error {
	return c.WarmContext(context.Background(), bufs, epses, workers)
}

// WarmContext is Warm with cooperative cancellation: once ctx is done,
// workers finish their current buffer and stop; the returned error then
// matches both crerr.ErrCanceled and the context sentinel.
func (c *Cache) WarmContext(ctx context.Context, bufs []*grid.Buffer, epses []float64, workers int) error {
	if len(bufs) == 0 || len(epses) == 0 {
		return nil
	}
	errs := make([]error, len(bufs))
	cerr := parallel.ForEachDynamicCtx(ctx, len(bufs), workers, func(i int) {
		for _, eps := range epses {
			if _, err := c.Features(bufs[i], eps); err != nil {
				errs[i] = err
				return
			}
		}
	})
	if cerr != nil {
		return crerr.Canceled(cerr)
	}
	return crerr.Aggregate(errs)
}

// ---------------------------------------------------------------------------
// Observability

// Stats is a point-in-time snapshot of the cache counters. A hit counts
// any request served from an existing entry, including one whose
// computation is still in flight (the requester shares it rather than
// recomputing), so misses equal the number of computations performed.
type Stats struct {
	DatasetHits, DatasetMisses uint64
	EBHits, EBMisses           uint64

	// DedupWaits counts the subset of hits that landed on a
	// still-in-flight computation and waited for it instead of
	// recomputing — the work the singleflight admission actually saved
	// under concurrency (a hit on a finished entry would have been a
	// plain map lookup in any design).
	DedupWaits uint64

	// Failures counts computations that ended in an error or recovered
	// panic, and Evictions the completed entries the byte budget
	// removed. Neither stays resident, so over the cache's lifetime
	// resident entries == Misses − Failures − Evictions (when no
	// computation is in flight).
	Failures  uint64
	Evictions uint64

	// Bytes is the current charge of the resident entries against
	// MaxBytes.
	Bytes int64
}

// Hits is the total request count served without a fresh computation.
func (s Stats) Hits() uint64 { return s.DatasetHits + s.EBHits }

// Misses is the total number of feature computations performed.
func (s Stats) Misses() uint64 { return s.DatasetMisses + s.EBMisses }

// HitRate is hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits() + s.Misses()
	if total == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		DatasetHits:   c.hits[dsetHalf].Load(),
		DatasetMisses: c.misses[dsetHalf].Load(),
		EBHits:        c.hits[ebHalf].Load(),
		EBMisses:      c.misses[ebHalf].Load(),
		DedupWaits:    c.dedupWaits.Load(),
		Failures:      c.failures.Load(),
		Evictions:     c.evictions.Load(),
		Bytes:         c.bytes.Load(),
	}
}

// Pending counts in-flight singleflight entries: resident entries whose
// computation has not yet published a result. Once every caller has
// returned, Pending must be zero — a nonzero steady-state value means a
// computation died without releasing its slot, the invariant the chaos
// tests assert after injected panics and cancellations.
func (c *Cache) Pending() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.entries {
			if !e.ready {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Len returns the number of resident (successfully computed or in-flight)
// entries across both halves of the cache.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}
