package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/predictors"
)

// span is one timed interval at a layer boundary. Spans of one request
// share its request ID; Parent is the ID of the enclosing span, -1 for a
// root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	RID    string `json:"rid"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory for the traced run. It hooks only public
// seams: the benchmark's own client calls, server.Config.Middleware, and
// the feature cache's compute functions (featcache.NewWithCompute), which
// it links to their request through grid.Buffer.Field. A nil *tracer
// records nothing, so the untraced path runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	idle  *sync.Cond // signalled when the last open span ends
	spans []span
	open  map[string]int // name + "\x00" + rid → ID of that open span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), open: make(map[string]int)}
	t.idle = sync.NewCond(&t.mu)
	return t
}

func (t *tracer) begin(name, rid string, parent, bytes int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, RID: rid, Start: now, Bytes: bytes})
	t.open[name+"\x00"+rid] = id
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	delete(t.open, s.Name+"\x00"+s.RID)
	if len(t.open) == 0 {
		t.idle.Broadcast()
	}
}

// settle waits until every open span has ended. The server ends its span
// once the handler returns, which can trail the client's reading of the
// reply, so a phase is settled before its spans are read or dropped.
func (t *tracer) settle() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.open) > 0 {
		t.idle.Wait()
	}
}

// openSpan returns the ID of the open span name of request rid, or -1.
func (t *tracer) openSpan(name, rid string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.open[name+"\x00"+rid]; ok {
		return id
	}
	return -1
}

// record appends a finished span.
func (t *tracer) record(name, rid string, parent int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, RID: rid,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// reset drops every recorded span; call it only when settled.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
	clear(t.open)
}

// middleware is the server.Config.Middleware hook: a "server" span per
// request, nested in the client span of the same request ID.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := obs.RequestID(r.Context())
		id := t.begin("server", rid, t.openSpan("client", rid), 0)
		defer t.end(id)
		next.ServeHTTP(w, r)
	})
}

// requestSpan is the span a feature computation for request rid nests
// in: the server span of that request, or the in-process batch call.
func (t *tracer) requestSpan(rid string) int {
	if id := t.openSpan("server", rid); id >= 0 {
		return id
	}
	return t.openSpan("batch", rid)
}

// dataset is the feature cache's dataset-feature function, timed.
func (t *tracer) dataset(buf *grid.Buffer, cfg predictors.Config) (predictors.DatasetFeatures, error) {
	start := time.Now()
	df, err := predictors.ComputeDataset(buf, cfg)
	t.record("predictors.dataset", buf.Field, t.requestSpan(buf.Field), start, time.Now())
	return df, err
}

// eb is the feature cache's error-bound feature function, timed.
func (t *tracer) eb(buf *grid.Buffer, eps float64, cfg predictors.Config) (float64, error) {
	start := time.Now()
	d, err := predictors.ComputeEB(buf, eps, cfg)
	t.record("predictors.eb", buf.Field, t.requestSpan(buf.Field), start, time.Now())
	return d, err
}

// spanMetrics derives the span-based per-layer metrics over ops ops: the
// server's self time (its span minus the part its child spans cover),
// the transport time (client span minus server span), body sizes, and
// the predictor call counts and durations.
func (t *tracer) spanMetrics(ops int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	server := make(map[string]span)
	var self, transport, bodyKB, dsMs, ebMs []float64
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		switch s.Name {
		case "server":
			server[s.RID] = s
		case "predictors.dataset":
			dsMs = append(dsMs, s.ms())
		case "predictors.eb":
			ebMs = append(ebMs, s.ms())
		}
	}
	for _, s := range t.spans {
		switch s.Name {
		case "server":
			self = append(self, s.ms()-covered(s, children[s.ID]))
		case "client":
			bodyKB = append(bodyKB, float64(s.Bytes)/1024)
			if sv, ok := server[s.RID]; ok {
				transport = append(transport, s.ms()-sv.ms())
			}
		}
	}
	return map[string]float64{
		"server.self_ms":                  median(self),
		"server.transport_ms":             median(transport),
		"server.body_kb":                  median(bodyKB),
		"predictors.dataset_calls_per_op": float64(len(dsMs)) / float64(ops),
		"predictors.dataset_ms_per_call":  median(dsMs),
		"predictors.eb_calls_per_op":      float64(len(ebMs)) / float64(ops),
		"predictors.eb_ms_per_call":       median(ebMs),
	}
}

// covered returns the milliseconds of parent's interval that the union
// of its children's intervals covers.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, end int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return float64(total) / 1e6
}

// write saves the spans as <dir>/<workload>.spans.json.
func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	doc, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	return path, os.WriteFile(path, append(doc, '\n'), 0o644)
}
