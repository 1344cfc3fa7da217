package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	crest "github.com/crestlab/crest"
	"github.com/crestlab/crest/internal/batch"
	"github.com/crestlab/crest/internal/compressors"
	"github.com/crestlab/crest/internal/core"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/server"
)

// params sizes one run of a workload.
type params struct {
	seed   int64
	ops    int // timed ops
	warmup int // untimed ops before them
	toy    bool
}

// size returns full, or the toy edge the smoke test runs at.
func (p params) size(full int) int {
	if p.toy {
		return 64
	}
	return full
}

// count returns full, or toy in the smoke test.
func (p params) count(full, toy int) int {
	if p.toy {
		return toy
	}
	return full
}

// opOut is what one op returned: the bound and the estimate of every
// item it asked for, in request order, and the time its requests took
// (body building excluded). start and end place the whole op, body
// building included, on the phase's clock.
type opOut struct {
	eps        []float64
	est        []core.Estimate
	lat        time.Duration
	start, end time.Duration
}

// client is the state one load goroutine reuses across its ops.
type client struct {
	body []byte
	tr   *tracer
}

// workload is one traffic mix: its inputs, its model's training set, and
// how an op is issued, checked and replayed.
type workload struct {
	http  bool
	ts    trainSet
	items int     // estimates per op: the compressions they stand in for
	mb    float64 // raw field MB per op, each distinct buffer once
	// digest is the sha256 of every base buffer and every op's patch.
	digest string

	do func(ctx context.Context, st *stack, c *client, op int) (opOut, error)
	// ref recomputes op's estimates through the library path and returns
	// them with the szinterp ratio of each item.
	ref func(m *model, op int, out opOut) (refs []core.Estimate, truth []float64, err error)
	// replay times the op's inputs through each layer's public functions.
	replay func(r *replayer, m *model, op int, out opOut) error
}

// spec is a named workload; README.md gives the reason for each.
type spec struct {
	name    string
	clients int
	// opsPerSecond sets the timed op count: ops = opsPerSecond × --seconds,
	// fixed per workload so two commits always do identical work.
	opsPerSecond float64
	build        func(p params) (*workload, error)
}

var specs = []spec{
	{
		name:         "serve-json-f64-512",
		clients:      2,
		opsPerSecond: 100.0 / 15,
		build:        serveJSON,
	},
	{
		name:         "eps-search-json-256",
		clients:      2,
		opsPerSecond: 100.0 / 15,
		build:        epsSearch,
	},
	{
		name:         "stream-crbs-f32-256",
		clients:      2,
		opsPerSecond: 200.0 / 15,
		build:        streamCRBS,
	},
	{
		name:         "batch-inproc-f64-128",
		clients:      2,
		opsPerSecond: 160.0 / 15,
		build:        batchInproc,
	},
}

// serveJSON: each op POSTs one distinct 512×512 float64 buffer as JSON at
// ε = 1e-3.
func serveJSON(p params) (*workload, error) {
	const eps = 1e-3
	w := &workload{http: true, items: 1, ts: trainSet{eps: []float64{1e-4, 1e-3, 1e-2}}}
	patchOf, err := jsonInputs(p, w, []string{"TC", "W", "PRECIP"}, p.count(3, 1), p.size(512))
	if err != nil {
		return nil, err
	}
	w.do = func(ctx context.Context, st *stack, c *client, op int) (opOut, error) {
		b, pt := patchOf(op)
		rid := "o" + strconv.Itoa(op)
		c.body = b.body(c.body[:0], rid, pt, eps)
		var resp server.EstimateResponse
		lat, err := post(ctx, st, c.tr, rid, st.url, "application/json", c.body, &resp)
		return opOut{eps: []float64{eps}, est: []core.Estimate{{CR: resp.CR, Lo: resp.Lo, Hi: resp.Hi}}, lat: lat}, err
	}
	w.ref = func(m *model, op int, out opOut) ([]core.Estimate, []float64, error) {
		b, pt := patchOf(op)
		return refF64(m, []*grid.Buffer{patched(b.buf, pt)}, out.eps)
	}
	w.replay = func(r *replayer, m *model, op int, out opOut) error {
		b, pt := patchOf(op)
		buf, err := r.jsonRequest(b.body(nil, "o"+strconv.Itoa(op), pt, eps))
		if err != nil {
			return err
		}
		return r.f64(buf, out.eps, m.est)
	}
	return w, nil
}

// jsonInputs synthesizes a JSON workload's inputs into w: one base per
// field, pre-rendered as JSON, and nTrain held-out slices per field to
// train on. It returns the base and patch of an op. Three fields — a
// count coprime to the 10-op reference stride, so the checked ops cover
// every field — cycle by op index.
func jsonInputs(p params, w *workload, fields []string, nTrain, edge int) (func(op int) (*jsonBase, patch), error) {
	var bases []*jsonBase
	var raw []*grid.Buffer
	for _, s := range synthSlices(fields, 1+nTrain, edge) {
		b, err := newJSONBase(s[0])
		if err != nil {
			return nil, err
		}
		bases, raw = append(bases, b), append(raw, s[0])
		w.ts.bufs = append(w.ts.bufs, s[1:]...)
	}
	w.mb = float64(8*len(raw[0].Data)) / 1e6
	patchOf := func(op int) (*jsonBase, patch) {
		b := bases[op%len(bases)]
		return b, patchFor(p.seed, op, 0, b.buf.Data, b.span)
	}
	w.digest = digestOf(raw, p, func(op int) []patch {
		_, pt := patchOf(op)
		return []patch{pt}
	})
	return patchOf, nil
}

// Bisection of the ε-search workload: log-ε over [searchLo, searchHi]
// toward a target compression ratio, as paper use case A does.
const (
	searchLo, searchHi = 1e-6, 1e-1
	searchTarget       = 10
)

// epsSearch: each op is one ε-search — sequential /v1/estimate probes on
// the same 256×256 content, each probe's bound the geometric midpoint of
// the bracket the earlier answers left.
func epsSearch(p params) (*workload, error) {
	probes := p.count(8, 2)
	w := &workload{http: true, items: probes, ts: trainSet{eps: []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}}}
	patchOf, err := jsonInputs(p, w, []string{"TC", "U", "QVAPOR"}, p.count(3, 1), p.size(256))
	if err != nil {
		return nil, err
	}
	w.do = func(ctx context.Context, st *stack, c *client, op int) (opOut, error) {
		b, pt := patchOf(op)
		out := opOut{}
		lo, hi := searchLo, searchHi
		for k := 0; k < probes; k++ {
			eps := math.Sqrt(lo * hi)
			rid := "o" + strconv.Itoa(op) + "p" + strconv.Itoa(k)
			c.body = b.body(c.body[:0], rid, pt, eps)
			var resp server.EstimateResponse
			lat, err := post(ctx, st, c.tr, rid, st.url, "application/json", c.body, &resp)
			out.lat += lat
			if err != nil {
				return out, fmt.Errorf("probe %d: %w", k, err)
			}
			out.eps = append(out.eps, eps)
			out.est = append(out.est, core.Estimate{CR: resp.CR, Lo: resp.Lo, Hi: resp.Hi})
			if resp.CR < searchTarget {
				lo = eps
			} else {
				hi = eps
			}
		}
		return out, nil
	}
	w.ref = func(m *model, op int, out opOut) ([]core.Estimate, []float64, error) {
		b, pt := patchOf(op)
		buf := patched(b.buf, pt)
		bufs := make([]*grid.Buffer, len(out.eps))
		for k := range bufs {
			bufs[k] = buf
		}
		return refF64(m, bufs, out.eps)
	}
	w.replay = func(r *replayer, m *model, op int, out opOut) error {
		b, pt := patchOf(op)
		buf, err := r.jsonRequest(b.body(nil, "o"+strconv.Itoa(op)+"p0", pt, out.eps[0]))
		if err != nil {
			return err
		}
		return r.f64(buf, out.eps, m.est)
	}
	return w, nil
}

// streamCRBS: each op POSTs one 8-slice AR(1) temporal series of 256×256
// float32 values as a CRBS stream in 32-row chunks at ε = 1e-3. The model
// trains on held-out series of the same fields, featurized through the
// same float32 stream core.
func streamCRBS(p params) (*workload, error) {
	const eps = 1e-3
	steps := p.count(8, 2)
	fields := []string{"TC", "U", "W"}
	edge := p.size(256)
	series := synthSeries(fields, steps, edge, inputSeed)
	held := synthSeries(fields, p.count(4, 1), edge, inputSeed+1)
	w := &workload{http: true, items: steps, ts: trainSet{eps: []float64{1e-4, 1e-3, 1e-2}, f32: true}}
	var bases []*streamBase
	var raw []*grid.Buffer
	for i := range fields {
		b, err := newStreamBase(series[i])
		if err != nil {
			return nil, err
		}
		bases, raw = append(bases, b), append(raw, b.slices...)
		for _, s := range held[i] {
			roundToF32(s)
			w.ts.bufs = append(w.ts.bufs, s)
		}
	}
	w.mb = float64(4*bases[0].elems()) / 1e6
	patchOf := func(op int) (*streamBase, patch) {
		b := bases[op%len(bases)]
		return b, b.patchFor(p.seed, op)
	}
	w.digest = digestOf(raw, p, func(op int) []patch {
		_, pt := patchOf(op)
		return []patch{pt}
	})
	url := func(st *stack) string { return st.url + "?eps=" + strconv.FormatFloat(eps, 'g', -1, 64) }
	w.do = func(ctx context.Context, st *stack, c *client, op int) (opOut, error) {
		b, pt := patchOf(op)
		c.body = b.body(c.body[:0], pt)
		var resp server.StreamResponse
		lat, err := post(ctx, st, c.tr, "o"+strconv.Itoa(op), url(st), server.StreamContentType, c.body, &resp)
		out := opOut{lat: lat}
		for _, s := range resp.Slices {
			out.eps = append(out.eps, eps)
			out.est = append(out.est, core.Estimate{CR: s.CR, Lo: s.Lo, Hi: s.Hi})
		}
		if err == nil && len(out.est) != steps {
			err = fmt.Errorf("%d slice estimates for %d slices", len(out.est), steps)
		}
		return out, err
	}
	w.ref = func(m *model, op int, out opOut) ([]core.Estimate, []float64, error) {
		b, pt := patchOf(op)
		cr, err := crest.NewChunkReader(bytes.NewReader(b.body(nil, pt)))
		if err != nil {
			return nil, nil, err
		}
		sfs, err := crest.ComputeStreamFeatures(cr, []float64{eps}, m.est.PredictorConfig())
		if err != nil {
			return nil, nil, err
		}
		var refs []core.Estimate
		for _, sf := range sfs {
			e, err := m.est.Estimate(sf.FeaturesAt(0).Vector())
			if err != nil {
				return nil, nil, err
			}
			refs = append(refs, e)
		}
		truth, err := szinterpRatios(b.slicesWith(pt), out.eps)
		return refs, truth, err
	}
	w.replay = func(r *replayer, m *model, op int, out opOut) error {
		b, pt := patchOf(op)
		return r.stream(b.body(nil, pt), eps, m.est)
	}
	return w, nil
}

// batchInproc: each op is one BatchEstimator.EstimateAllContext call with
// 16 freshly patched 128×128 buffers at three bounds — 48 requests
// sharing 16 dataset-feature computations. Two callers share the engine:
// one caller leaves a core idle at every singleflight wait and batch
// boundary, and on the 2-vCPU reference machine waking an idle vCPU costs
// a host-dependent delay that made one-caller results swing by 25%
// between runs.
func batchInproc(p params) (*workload, error) {
	epses := []float64{1e-2, 1e-3, 1e-4}
	fields := []string{"TC", "U", "W", "PRECIP"}
	perField := p.count(4, 1)
	nTrain := p.count(2, 1)
	slices := synthSlices(fields, perField+nTrain, p.size(128))
	w := &workload{ts: trainSet{eps: epses}}
	var bases []*grid.Buffer
	var spans []float64
	for _, s := range slices {
		for _, b := range s[:perField] {
			bases, spans = append(bases, b), append(spans, valueRange(b))
		}
		w.ts.bufs = append(w.ts.bufs, s[perField:]...)
	}
	w.items = len(bases) * len(epses)
	w.mb = float64(8*len(bases)*len(bases[0].Data)) / 1e6
	patchOf := func(op, i int) patch {
		return patchFor(p.seed, op, i, bases[i].Data, spans[i])
	}
	w.digest = digestOf(bases, p, func(op int) []patch {
		pts := make([]patch, len(bases))
		for i := range pts {
			pts[i] = patchOf(op, i)
		}
		return pts
	})
	// items lists op's buffers and bounds in request order.
	items := func(op int, rid string) ([]*grid.Buffer, []float64) {
		var bufs []*grid.Buffer
		var eps []float64
		for i, base := range bases {
			b := patched(base, patchOf(op, i))
			b.Field = rid
			for _, e := range epses {
				bufs, eps = append(bufs, b), append(eps, e)
			}
		}
		return bufs, eps
	}
	w.do = func(ctx context.Context, st *stack, c *client, op int) (opOut, error) {
		rid := "o" + strconv.Itoa(op)
		bufs, eps := items(op, rid)
		reqs := make([]batch.Request, len(bufs))
		for i := range bufs {
			reqs[i] = batch.Request{Buf: bufs[i], Eps: eps[i]}
		}
		id := c.tr.begin("batch", rid, -1, 0)
		t0 := time.Now()
		ests, err := st.engine.EstimateAllContext(ctx, reqs)
		lat := time.Since(t0)
		c.tr.end(id)
		return opOut{eps: eps, est: ests, lat: lat}, err
	}
	w.ref = func(m *model, op int, out opOut) ([]core.Estimate, []float64, error) {
		bufs, eps := items(op, "")
		return refF64(m, bufs, eps)
	}
	w.replay = func(r *replayer, m *model, op int, out opOut) error {
		bufs, _ := items(op, "")
		for i := 0; i < len(bufs); i += len(epses) {
			if err := r.f64(bufs[i], epses, m.est); err != nil {
				return err
			}
		}
		return nil
	}
	return w, nil
}

// post sends one estimate request and decodes the 200 reply into dst,
// returning the round-trip time. With a tracer the request is a client
// span carrying its body size.
func post(ctx context.Context, st *stack, tr *tracer, rid, url, ctype string, body []byte, dst any) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", ctype)
	req.Header.Set("X-Request-ID", rid)
	id := tr.begin("client", rid, -1, len(body))
	t0 := time.Now()
	resp, err := st.client.Do(req)
	if err == nil {
		err = readReply(resp, dst)
	}
	lat := time.Since(t0)
	tr.end(id)
	return lat, err
}

func readReply(resp *http.Response, dst any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status already fails the op
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	_, err := io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
	return err
}

// refF64 recomputes each (buffer, bound) item through the library's
// float64 path, ComputeFeatureVector then Estimate, and compresses it
// with szinterp for the true ratio.
func refF64(m *model, bufs []*grid.Buffer, eps []float64) ([]core.Estimate, []float64, error) {
	refs := make([]core.Estimate, len(bufs))
	for i, b := range bufs {
		f, err := crest.ComputeFeatureVector(b, eps[i], m.est.PredictorConfig())
		if err != nil {
			return nil, nil, err
		}
		if refs[i], err = m.est.Estimate(f); err != nil {
			return nil, nil, err
		}
	}
	truth, err := szinterpRatios(bufs, eps)
	return refs, truth, err
}

// szinterpRatios compresses each buffer at its bound.
func szinterpRatios(bufs []*grid.Buffer, eps []float64) ([]float64, error) {
	out := make([]float64, len(bufs))
	for i, b := range bufs {
		cr, err := compressors.Ratio(compressors.NewSZInterp(), b, eps[i])
		if err != nil {
			return nil, fmt.Errorf("szinterp: %w", err)
		}
		out[i] = cr
	}
	return out, nil
}
