// Package featcache is the shared, race-safe predictor-feature cache of
// the estimation pipeline. The five statistical predictors are
// compressor-independent (§IV-B), so every consumer that evaluates the
// same buffer — per-compressor proposed models in use case B, k-fold
// evaluation, the batch-estimation engine — should share one cache and pay
// for each buffer's features exactly once.
//
// The cache preserves the paper's §IV-C parallel substrate under
// concurrency with two mechanisms:
//
//   - Sharding: entries are spread over a fixed set of shards by a hash of
//     the buffer identity and error-bound bits, so concurrent lookups of
//     different buffers rarely contend on the same mutex.
//   - Singleflight admission: the first goroutine to request a missing
//     entry installs a placeholder under the shard lock and computes the
//     features outside it; later requesters (including concurrent first
//     requests for the same key) block on the placeholder instead of
//     recomputing. Each (buffer, bound) pair is therefore computed exactly
//     once no matter how many goroutines race on it.
//
// Dataset features (the four error-bound-agnostic predictors) and the
// error-bound-specific distortion are cached separately, mirroring the
// dset_predictors / eb_predictors split of Algorithm 2.
package featcache

import (
	"context"
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

// NumShards is the shard count; a power of two keeps the index a cheap
// mask. 32 shards keep contention negligible at typical worker counts.
const NumShards = 32

// DatasetFunc computes the error-bound-agnostic predictors of a buffer;
// the default is predictors.ComputeDataset. Replaceable for fault
// injection (internal/chaos) and testing.
type DatasetFunc func(*grid.Buffer, predictors.Config) (predictors.DatasetFeatures, error)

// EBFunc computes the error-bound-specific distortion; the default is
// predictors.ComputeEB.
type EBFunc func(*grid.Buffer, float64, predictors.Config) (float64, error)

// Cache is a sharded, mutex-protected, singleflight feature cache. The
// zero value is not usable; construct with New.
//
// Failure semantics: a computation that returns an error or panics does
// NOT leave a cached entry behind. Goroutines already waiting on that
// in-flight computation observe its error, but the key is removed before
// the waiters are released, so the next request for it is a fresh miss
// that retries the computation. Panics inside the compute functions are
// recovered and surfaced as errors wrapping crerr.ErrInvalidBuffer, so a
// malformed buffer can never wedge a singleflight slot or kill the
// process.
type Cache struct {
	cfg         predictors.Config
	computeDset DatasetFunc
	computeEB   EBFunc
	shards      [NumShards]shard

	// Counters are updated with atomics so Stats never takes shard locks.
	dsetHits, dsetMisses uint64
	ebHits, ebMisses     uint64
	dedupWaits           uint64
	failures             uint64

	// Registry mirrors of the counters above, resolved once at
	// construction so the hot path never takes the registry mutex.
	reg obsCounters
}

// obsCounters are the cache's handles into the observability registry.
type obsCounters struct {
	dsetHits, dsetMisses *obs.Counter
	ebHits, ebMisses     *obs.Counter
	dedupWaits           *obs.Counter
	failures             *obs.Counter
}

func newObsCounters(r *obs.Registry) obsCounters {
	return obsCounters{
		dsetHits:   r.Counter("featcache_dataset_hits_total"),
		dsetMisses: r.Counter("featcache_dataset_misses_total"),
		ebHits:     r.Counter("featcache_eb_hits_total"),
		ebMisses:   r.Counter("featcache_eb_misses_total"),
		dedupWaits: r.Counter("featcache_dedup_waits_total"),
		failures:   r.Counter("featcache_failures_total"),
	}
}

type shard struct {
	mu   sync.Mutex
	dset map[*grid.Buffer]*dsetEntry
	eb   map[ebKey]*ebEntry
}

type ebKey struct {
	buf  *grid.Buffer
	bits uint64
}

// dsetEntry is a singleflight slot: done closes once df/err are final.
type dsetEntry struct {
	done chan struct{}
	df   predictors.DatasetFeatures
	err  error
}

type ebEntry struct {
	done chan struct{}
	d    float64
	err  error
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
	c := &Cache{cfg: cfg, computeDset: dset, computeEB: eb,
		reg: newObsCounters(obs.Default())}
	for i := range c.shards {
		c.shards[i].dset = make(map[*grid.Buffer]*dsetEntry)
		c.shards[i].eb = make(map[ebKey]*ebEntry)
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

// ---------------------------------------------------------------------------
// Key derivation

// KeyHash mixes a buffer-identity word and canonical error-bound bits into
// a shard hash (splitmix64 finalizer). Exported for the fuzz harness.
func KeyHash(ptr, epsBits uint64) uint64 {
	x := ptr ^ (epsBits * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardIndex maps a (buffer identity, error bound) key to its shard.
func ShardIndex(ptr, epsBits uint64) int {
	return int(KeyHash(ptr, epsBits) % NumShards)
}

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

func bufBits(buf *grid.Buffer) uint64 {
	return uint64(uintptr(unsafe.Pointer(buf)))
}

// ---------------------------------------------------------------------------
// Lookups

// Dataset returns the four error-bound-agnostic predictors of buf,
// computing them on first use. Concurrent first requests compute once.
// A failed or panicking computation is reported to its requesters but is
// not retained: the key misses again (and recomputes) on the next call.
func (c *Cache) Dataset(buf *grid.Buffer) (predictors.DatasetFeatures, error) {
	s := &c.shards[ShardIndex(bufBits(buf), 0)]
	s.mu.Lock()
	e, ok := s.dset[buf]
	if ok {
		s.mu.Unlock()
		atomic.AddUint64(&c.dsetHits, 1)
		c.reg.dsetHits.Inc()
		// A hit on a still-in-flight entry is a singleflight dedup: this
		// goroutine waits on another's computation instead of repeating it.
		select {
		case <-e.done:
		default:
			atomic.AddUint64(&c.dedupWaits, 1)
			c.reg.dedupWaits.Inc()
			<-e.done
		}
		return e.df, e.err
	}
	e = &dsetEntry{done: make(chan struct{})}
	s.dset[buf] = e
	s.mu.Unlock()
	atomic.AddUint64(&c.dsetMisses, 1)
	c.reg.dsetMisses.Inc()
	func() {
		defer func() {
			if v := recover(); v != nil {
				e.err = crerr.Recovered(v, crerr.ErrInvalidBuffer)
			}
		}()
		e.df, e.err = c.computeDset(buf, c.cfg)
	}()
	if e.err != nil {
		atomic.AddUint64(&c.failures, 1)
		c.reg.failures.Inc()
		// Remove the failed entry before releasing waiters so no later
		// caller can observe (and be poisoned by) a dead singleflight
		// slot: the failure is retryable.
		s.mu.Lock()
		if s.dset[buf] == e {
			delete(s.dset, buf)
		}
		s.mu.Unlock()
	}
	close(e.done)
	return e.df, e.err
}

// Distortion returns the error-bound-specific generic distortion of buf at
// eps, computing it on first use. Failure semantics match Dataset: errors
// and recovered panics are surfaced but never cached.
func (c *Cache) Distortion(buf *grid.Buffer, eps float64) (float64, error) {
	bits := EBBits(eps)
	k := ebKey{buf, bits}
	s := &c.shards[ShardIndex(bufBits(buf), bits)]
	s.mu.Lock()
	e, ok := s.eb[k]
	if ok {
		s.mu.Unlock()
		atomic.AddUint64(&c.ebHits, 1)
		c.reg.ebHits.Inc()
		select {
		case <-e.done:
		default:
			atomic.AddUint64(&c.dedupWaits, 1)
			c.reg.dedupWaits.Inc()
			<-e.done
		}
		return e.d, e.err
	}
	e = &ebEntry{done: make(chan struct{})}
	s.eb[k] = e
	s.mu.Unlock()
	atomic.AddUint64(&c.ebMisses, 1)
	c.reg.ebMisses.Inc()
	func() {
		defer func() {
			if v := recover(); v != nil {
				e.err = crerr.Recovered(v, crerr.ErrInvalidBuffer)
			}
		}()
		e.d, e.err = c.computeEB(buf, eps, c.cfg)
	}()
	if e.err != nil {
		atomic.AddUint64(&c.failures, 1)
		c.reg.failures.Inc()
		s.mu.Lock()
		if s.eb[k] == e {
			delete(s.eb, k)
		}
		s.mu.Unlock()
	}
	close(e.done)
	return e.d, e.err
}

// Features returns the full five-feature covariate vector of buf at eps,
// assembled from the two cached halves.
func (c *Cache) Features(buf *grid.Buffer, eps float64) ([]float64, error) {
	df, err := c.Dataset(buf)
	if err != nil {
		return nil, err
	}
	d, err := c.Distortion(buf, eps)
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
	df, err := c.Dataset(buf)
	if err != nil {
		return dst, err
	}
	d, err := c.Distortion(buf, eps)
	if err != nil {
		return dst, err
	}
	return append(dst, df.SD, df.SC, df.CodingGain, df.CovSVDTrunc, d), nil
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
// recomputing), so misses equal the number of distinct keys ever computed.
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
	// panic. Failed keys are not retained, so over the cache's lifetime
	// resident entries == Misses − Failures (when no computation is in
	// flight).
	Failures uint64
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

// Stats returns a snapshot of the hit/miss counters.
func (c *Cache) Stats() Stats {
	return Stats{
		DatasetHits:   atomic.LoadUint64(&c.dsetHits),
		DatasetMisses: atomic.LoadUint64(&c.dsetMisses),
		EBHits:        atomic.LoadUint64(&c.ebHits),
		EBMisses:      atomic.LoadUint64(&c.ebMisses),
		DedupWaits:    atomic.LoadUint64(&c.dedupWaits),
		Failures:      atomic.LoadUint64(&c.failures),
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
		for _, e := range s.dset {
			select {
			case <-e.done:
			default:
				n++
			}
		}
		for _, e := range s.eb {
			select {
			case <-e.done:
			default:
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
		n += len(s.dset) + len(s.eb)
		s.mu.Unlock()
	}
	return n
}
