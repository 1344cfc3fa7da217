package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/server"
)

// benchmarkFile is the subset of ../BENCHMARK.json the smoke test checks
// the benchmark against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that the result line carries every metric BENCHMARK.json names,
// finite and with its unit, and that every op was correct.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the workloads run two client goroutines and refuse to on one CPU")
	}
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for _, s := range specs {
		defined = append(defined, s.name)
	}
	if strings.Join(names, ",") != strings.Join(defined, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, the benchmark defines %v", names, defined)
	}
	for _, trace := range []bool{false, true} {
		want := bf.EndToEnd
		if trace {
			want = bf.PerLayer
		}
		for _, s := range specs {
			opt := options{workloads: []spec{s}, seed: 7, seconds: 1, trace: trace, repeat: 1, outDir: t.TempDir(), toy: true}
			var out bytes.Buffer
			if err := runOptions(context.Background(), opt, &out); err != nil {
				t.Fatalf("%s trace=%t: %v\n%s", s.name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s trace=%t: last line is not the result: %v", s.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					s.name, trace, rep.Correct, rep.Attempted, rep.Failed, out.String())
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", s.name, trace, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rep.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", s.name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%t: %s unit %q, want %q", s.name, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value == math.MaxFloat64:
					t.Errorf("%s trace=%t: %s = %g", s.name, trace, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %g, want > 0", s.name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestInputsDeterministic checks that a seed fixes every workload's
// inputs and that another seed changes them.
func TestInputsDeterministic(t *testing.T) {
	for _, s := range specs {
		digest := func(seed int64) string {
			w, err := s.build(params{seed: seed, ops: 3, warmup: 1, toy: true})
			if err != nil {
				t.Fatal(err)
			}
			return w.digest
		}
		a, b, c := digest(3), digest(3), digest(4)
		if a != b {
			t.Errorf("%s: seed 3 gave inputs %s then %s", s.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs %s", s.name, a)
		}
	}
}

// TestBodiesMatchEncoders checks the spliced request bodies against the
// encoders they stand in for: encoding/json for the JSON workloads and
// the CRBS ChunkReader for the stream workload.
func TestBodiesMatchEncoders(t *testing.T) {
	base := synthSlices([]string{"TC"}, 2, 64)[0]
	jb, err := newJSONBase(base[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, elem := range []int{0, 1, 2047, len(base[0].Data) - 1} {
		pt := patch{elem: elem, value: 12.345678901234567}
		want, err := json.Marshal(server.EstimateRequest{
			Field: "o5", Rows: 64, Cols: 64, Data: patched(base[0], pt).Data, Eps: 1e-3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := jb.body(nil, "o5", pt, 1e-3); !bytes.Equal(got, want) {
			t.Errorf("JSON body with element %d patched differs from encoding/json", elem)
		}
	}

	sb, err := newStreamBase(base)
	if err != nil {
		t.Fatal(err)
	}
	n := len(base[0].Data)
	for op := 0; op < 200; op++ {
		pt := sb.patchFor(1, op)
		if old := sb.slices[pt.elem/n].Data[pt.elem%n]; float32(pt.value) == float32(old) {
			t.Fatalf("op %d: patch of element %d leaves its float32 value %g unchanged", op, pt.elem, old)
		}
	}
	for _, elem := range []int{0, 64*64 - 1, 64 * 64, 2*64*64 - 1} {
		pt := patch{elem: elem, value: 3.25}
		cr, err := grid.NewChunkReader(bytes.NewReader(sb.body(nil, pt)))
		if err != nil {
			t.Fatal(err)
		}
		for s, want := range sb.slicesWith(pt) {
			got, err := cr.ReadSlice()
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("stream element %d patched: slice %d element %d = %g, want %g",
						elem, s, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
}
