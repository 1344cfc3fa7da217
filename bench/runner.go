package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/server"
)

const (
	// warmupOps are untimed ops that fill pools and connections first.
	warmupOps = 10
	// setupRuns is how many times an untraced run sets the stack up;
	// setup_s is their median.
	setupRuns = 5
	// refStride: every refStride-th timed op, plus the last, is recomputed
	// through the library path and compressed for its true ratio.
	refStride = 10
	// windows is how many equal slices of the timed phase's wall time
	// the throughput is the median over, so a stall of the shared host
	// spoils one slice instead of the run.
	windows = 5
	// heapFloorKB offsets heap_retained_kb_per_op, so that on a
	// near-zero footprint heap noise cannot read as a large relative
	// regression.
	heapFloorKB = 32
)

// costEdges are the buffer edges the traced run fits the §IV-C cost
// model over.
var costEdges = []int{128, 192, 256, 384, 512}

// phase is the outcome of running a range of ops.
type phase struct {
	first int
	outs  []opOut
	errs  []error
	wall  time.Duration
	cpu   time.Duration // process CPU time over the phase
}

// runPhase runs ops [first, first+n) closed loop: each of the workload's
// clients takes the next op only when its previous one returned.
func runPhase(ctx context.Context, w *workload, clients int, st *stack, tr *tracer, first, n int) phase {
	ph := phase{first: first, outs: make([]opOut, n), errs: make([]error, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0, start := cpuTime(), time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &client{tr: tr}
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					ph.errs[i] = err
					continue
				}
				t := time.Since(start)
				ph.outs[i], ph.errs[i] = w.do(ctx, st, cl, first+i)
				ph.outs[i].start, ph.outs[i].end = t, time.Since(start)
			}
		}()
	}
	wg.Wait()
	ph.wall, ph.cpu = time.Since(start), cpuTime()-cpu0
	return ph
}

// sampled lists the phase indices that are recomputed and replayed.
func sampled(n int) []int {
	var idx []int
	for i := 0; i < n; i += refStride {
		idx = append(idx, i)
	}
	if idx[len(idx)-1] != n-1 {
		idx = append(idx, n-1)
	}
	return idx
}

// heapAfterGC returns the live heap once garbage, including the pools'
// victim caches, has been collected.
func heapAfterGC() (uint64, runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms
}

// runWorkload runs one workload: inputs, set-up, warm-up and the timed
// ops, then either the end-to-end report or, with --trace 1, the traced
// run's per-layer report.
func runWorkload(ctx context.Context, s spec, opt options, out io.Writer) (*report, error) {
	if s.clients > runtime.NumCPU() {
		return nil, fmt.Errorf("%d client goroutines exceed the %d CPUs; refusing to oversubscribe the load generator", s.clients, runtime.NumCPU())
	}
	p := params{seed: opt.seed, ops: int(math.Ceil(s.opsPerSecond * float64(opt.seconds))), warmup: warmupOps}
	setups := setupRuns
	if opt.toy {
		p = params{seed: opt.seed, ops: 3, warmup: 1, toy: true}
	}
	if opt.toy || opt.trace {
		setups = 1
	}
	t0 := time.Now()
	w, err := s.build(p)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	fmt.Fprintf(out, "workload %s: ops=%d warmup=%d clients=%d inputs_sha256=%s (inputs %.2fs)\n",
		s.name, p.ops, p.warmup, s.clients, w.digest, time.Since(t0).Seconds())

	var m *model
	var st *stack
	var setupS []float64
	for k := 0; k < setups; k++ {
		if st != nil {
			st.close()
		}
		t := time.Now()
		if m, err = train(ctx, w.ts); err != nil {
			return nil, err
		}
		if st, err = boot(m, w.http, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	runPhase(ctx, w, s.clients, st, nil, 0, p.warmup)
	heap0, ms0 := heapAfterGC()
	ph := runPhase(ctx, w, s.clients, st, nil, p.warmup, p.ops)
	heap1, ms1 := heapAfterGC()
	st.close()
	if opt.trace {
		st = nil // the traced stack must not run beside this one's retained cache
		v := map[string]float64{
			"runtime.alloc_mb_per_op":    float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(p.ops),
			"runtime.gc_pause_ms_per_op": float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / float64(p.ops),
		}
		return traced(ctx, s, w, m, p, ph, v, opt, out)
	}

	rep, v := verify(w, m, ph, out)
	lat := make([]float64, len(ph.outs))
	okOps := 0
	for i, o := range ph.outs {
		lat[i] = math.Inf(1) // a failed op misses every latency limit
		if ph.errs[i] == nil {
			lat[i] = float64(o.lat) / 1e6
			okOps++
		}
	}
	v["setup_s"] = median(setupS)
	v["op_p50_ms"] = nearestRank(lat, 0.50)
	v["throughput_mb_s"] = windowedThroughput(ph, w.mb)
	v["heap_retained_kb_per_op"] = heapFloorKB + (float64(heap1)-float64(heap0))/1024/float64(p.ops)
	fmt.Fprintf(out, "  %d latency samples: p90 %.4g ms with %d samples beyond it; timed wall %.2fs, %.2f cores busy, %.4g MB/s overall; fail_ratio %.4f; peak RSS %d MB\n",
		len(lat), nearestRank(lat, 0.9), len(lat)-int(math.Ceil(0.9*float64(len(lat)))),
		ph.wall.Seconds(), ph.cpu.Seconds()/ph.wall.Seconds(), w.mb*float64(okOps)/ph.wall.Seconds(),
		float64(rep.Failed)/float64(rep.Attempted), peakRSSMB())
	rep.fill(endToEnd, v)
	return rep, nil
}

// traced runs the timed ops again on a fresh stack over the same model,
// now with spans, then replays the checked ops and fits the cost model.
// untraced is the untraced phase, whose wall time is the base of the
// tracing overhead; v already holds its runtime readings.
func traced(ctx context.Context, s spec, w *workload, m *model, p params, untraced phase, v map[string]float64, opt options, out io.Writer) (*report, error) {
	tr := newTracer()
	st, err := boot(m, w.http, tr)
	if err != nil {
		return nil, err
	}
	runPhase(ctx, w, s.clients, st, tr, 0, p.warmup)
	tr.settle()
	tr.reset()
	cache0, eng0 := st.cache.Stats(), st.engine.Stats()
	var srv0, srv1 server.Stats
	if st.srv != nil {
		srv0 = st.srv.Stats()
	}
	ph := runPhase(ctx, w, s.clients, st, tr, p.warmup, p.ops)
	tr.settle()
	cache1, eng1 := st.cache.Stats(), st.engine.Stats()
	if st.srv != nil {
		srv1 = st.srv.Stats()
	}
	st.close()

	for name, x := range tr.spanMetrics(p.ops) {
		v[name] = x
	}
	v["server.shed"] = float64(srv1.Shed - srv0.Shed)
	v["server.errors"] = float64(srv1.Failed - srv0.Failed)
	if dh, dm := cache1.DatasetHits-cache0.DatasetHits, cache1.DatasetMisses-cache0.DatasetMisses; dh+dm > 0 {
		v["featcache.dataset_hit_ratio"] = float64(dh) / float64(dh+dm)
	}
	if eh, em := cache1.EBHits-cache0.EBHits, cache1.EBMisses-cache0.EBMisses; eh+em > 0 {
		v["featcache.eb_hit_ratio"] = float64(eh) / float64(eh+em)
	}
	v["featcache.dedup_waits_per_op"] = float64(cache1.DedupWaits-cache0.DedupWaits) / float64(p.ops)
	if reqs := float64(eng1.Requests - eng0.Requests); reqs > 0 {
		feat, est := eng1.FeatureTime-eng0.FeatureTime, eng1.EstimateTime-eng0.EstimateTime
		v["batch.feature_ms_per_req"] = float64(feat) / 1e6 / reqs
		v["batch.estimate_us_per_req"] = float64(est) / 1e3 / reqs
		v["batch.worker_busy_ratio"] = float64(feat+est) / float64(ph.wall*engineWorkers)
	}
	v["compressors.szinterp_ms_per_op"] = m.szMs * float64(w.items)
	v["trace.overhead_pct"] = 100 * (ph.wall.Seconds()/untraced.wall.Seconds() - 1)

	rep, _ := verify(w, m, ph, out)
	rp := newReplayer(tr)
	for _, i := range sampled(p.ops) {
		if ph.errs[i] != nil {
			continue
		}
		op := p.warmup + i
		done := rp.start("o" + strconv.Itoa(op))
		err := w.replay(rp, m, op, ph.outs[i])
		done()
		if err != nil {
			return nil, fmt.Errorf("replay op %d: %w", op, err)
		}
	}
	edges := costEdges
	if opt.toy {
		edges = []int{32, 48, 64}
	}
	done := rp.start("perfmodel")
	err = costModelCheck(rp, edges)
	done()
	if err != nil {
		return nil, fmt.Errorf("cost model: %w", err)
	}
	for name, xs := range rp.samples {
		v[name] = median(xs)
	}
	path, err := tr.write(opt.outDir, s.name)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "  spans: %s\n", path)
	rep.fill(perLayer, v)
	return rep, nil
}

// verify counts failed ops — a transport error, a non-200 reply, or a
// sampled op whose estimates differ in any bit from the library path —
// and computes the accuracy metrics of the sampled ops against szinterp.
func verify(w *workload, m *model, ph phase, out io.Writer) (*report, map[string]float64) {
	rep := &report{Attempted: len(ph.outs)}
	failed := make([]bool, len(ph.outs))
	for i, err := range ph.errs {
		if err != nil {
			failed[i] = true
			fmt.Fprintf(out, "  op %d failed: %v\n", ph.first+i, err)
		}
	}
	var apes []float64
	hits := 0
	for _, i := range sampled(len(ph.outs)) {
		if failed[i] {
			continue
		}
		o := ph.outs[i]
		refs, truth, err := w.ref(m, ph.first+i, o)
		if err == nil && len(refs) != len(o.est) {
			err = fmt.Errorf("%d reference estimates for %d returned", len(refs), len(o.est))
		}
		if err != nil {
			failed[i] = true
			fmt.Fprintf(out, "  op %d reference: %v\n", ph.first+i, err)
			continue
		}
		for k, e := range o.est {
			if !sameBits(e, refs[k]) {
				failed[i] = true
				fmt.Fprintf(out, "  op %d item %d: served %+v, library %+v\n", ph.first+i, k, e, refs[k])
			}
			cr := math.Min(truth[k], core.DefaultCRCap)
			apes = append(apes, 100*math.Abs(e.CR-cr)/cr)
			if e.Contains(cr) {
				hits++
			}
		}
	}
	for _, f := range failed {
		if f {
			rep.Failed++
		}
	}
	rep.Correct = rep.Failed == 0
	v := map[string]float64{"medape_pct": median(apes)}
	if len(apes) > 0 {
		v["coverage_pct"] = 100 * float64(hits) / float64(len(apes))
	}
	fmt.Fprintf(out, "  reference: %d sampled ops, %d estimates checked bit for bit against the library path\n",
		len(sampled(len(ph.outs))), len(apes))
	return rep, v
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return -1
	}
	return ru.Maxrss / 1024 // Linux reports KB
}

func sameBits(a, b core.Estimate) bool {
	return math.Float64bits(a.CR) == math.Float64bits(b.CR) &&
		math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
		math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
}

// windowedThroughput splits the phase's wall time into `windows` equal
// slices, credits each successful op's MB to the slices its run overlaps
// in proportion, and returns the median slice rate in MB/s.
func windowedThroughput(ph phase, mb float64) float64 {
	slice := ph.wall / windows
	credit := make([]float64, windows)
	for i, o := range ph.outs {
		if ph.errs[i] != nil || o.end <= o.start {
			continue
		}
		for k := range credit {
			lo, hi := max(o.start, time.Duration(k)*slice), min(o.end, time.Duration(k+1)*slice)
			if hi > lo {
				credit[k] += mb * float64(hi-lo) / float64(o.end-o.start)
			}
		}
	}
	rates := make([]float64, windows)
	for k, c := range credit {
		rates[k] = c / slice.Seconds()
	}
	return median(rates)
}

// nearestRank returns the p-quantile of xs by the nearest-rank rule: the
// ⌈p·n⌉-th smallest value.
func nearestRank(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(p*float64(len(s))))-1, 0)]
}
