package perfmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestElfvingBasics(t *testing.T) {
	d := Dist{Mu: 5, Sigma: 2}
	// n = 1: expected max is the mean.
	if e := ElfvingMax(d, 1); !almost(e, 5, 1e-9) {
		t.Errorf("ElfvingMax(n=1) = %g", e)
	}
	if e := ElfvingMax(d, 0); e != 0 {
		t.Errorf("ElfvingMax(n=0) = %g", e)
	}
	// Monotone nondecreasing in n.
	prev := math.Inf(-1)
	for _, n := range []int{1, 2, 4, 10, 100, 10000} {
		e := ElfvingMax(d, n)
		if e < prev {
			t.Errorf("ElfvingMax not monotone at n=%d: %g < %g", n, e, prev)
		}
		prev = e
	}
	// Zero variance: max = mean for any n.
	if e := ElfvingMax(Dist{Mu: 3}, 1000); !almost(e, 3, 1e-9) {
		t.Errorf("deterministic max = %g", e)
	}
}

func TestElfvingMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := Dist{Mu: 10, Sigma: 3}
	n := 40
	trials := 20000
	var sum float64
	for trial := 0; trial < trials; trial++ {
		m := math.Inf(-1)
		for i := 0; i < n; i++ {
			v := d.Mu + d.Sigma*rng.NormFloat64()
			if v > m {
				m = v
			}
		}
		sum += m
	}
	sim := sum / float64(trials)
	model := ElfvingMax(d, n)
	if !almost(sim, model, 0.15) {
		t.Errorf("simulated max %g vs Elfving %g", sim, model)
	}
}

func TestW(t *testing.T) {
	d := Dist{Mu: 2, Sigma: 0}
	// 10 deterministic tasks on 5 procs: 2 waves of 2s.
	if w := W(d, 10, 5); !almost(w, 4, 1e-9) {
		t.Errorf("W = %g", w)
	}
	// Fewer tasks than processors: single wave over nt samples.
	if w := W(d, 3, 8); !almost(w, 2, 1e-9) {
		t.Errorf("W = %g", w)
	}
	if w := W(d, 0, 4); w != 0 {
		t.Errorf("W(0 tasks) = %g", w)
	}
	// Variance increases completion time.
	if W(Dist{Mu: 2, Sigma: 1}, 10, 5) <= W(d, 10, 5) {
		t.Error("stragglers free of charge")
	}
}

func TestDistAdd(t *testing.T) {
	s := Dist{Mu: 1, Sigma: 3}.Add(Dist{Mu: 2, Sigma: 4})
	if !almost(s.Mu, 3, 1e-12) || !almost(s.Sigma, 5, 1e-12) {
		t.Errorf("sum = %+v", s)
	}
}

func TestMakespanKnownCases(t *testing.T) {
	tasks := []float64{3, 3, 2, 2, 2}
	// 2 procs: optimal is 6 (3+3 | 2+2+2).
	if m := ExactMakespan(tasks, 2); !almost(m, 6, 1e-9) {
		t.Errorf("exact makespan = %g", m)
	}
	// 1 proc: sum.
	if m := ExactMakespan(tasks, 1); !almost(m, 12, 1e-9) {
		t.Errorf("serial makespan = %g", m)
	}
	// procs >= tasks: max.
	if m := ExactMakespan(tasks, 9); !almost(m, 3, 1e-9) {
		t.Errorf("fully parallel makespan = %g", m)
	}
	if m := ExactMakespan(nil, 3); m != 0 {
		t.Errorf("empty makespan = %g", m)
	}
}

// TestMakespanProperties: exact ≤ LPT ≤ (2 − 1/m)·exact, and exact ≥ both
// lower bounds (max task, total/m).
func TestMakespanProperties(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 1
		m := int(mRaw%4) + 1
		tasks := make([]float64, n)
		var total, maxT float64
		for i := range tasks {
			tasks[i] = rng.Float64()*10 + 0.1
			total += tasks[i]
			if tasks[i] > maxT {
				maxT = tasks[i]
			}
		}
		exact := ExactMakespan(tasks, m)
		lpt := LPTMakespan(tasks, m)
		lower := math.Max(maxT, total/float64(m))
		if exact < lower-1e-9 {
			return false
		}
		if lpt < exact-1e-9 {
			return false
		}
		return lpt <= (2-1/float64(m))*exact+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestUseCaseASpeedup(t *testing.T) {
	// Identical estimate and compressor cost with zero data-pred cost and
	// equal variance: speedup ≈ 1 for many searches.
	in := UseCaseAInput{
		Compressor: Dist{Mu: 1, Sigma: 0.5},
		EBPred:     Dist{Mu: 1, Sigma: 0.5},
		Searches:   1000,
		Procs:      10,
	}
	if s := UseCaseASpeedup(in); !almost(s, 1, 0.02) {
		t.Errorf("parity speedup = %g", s)
	}
	// Cheaper estimates: speedup > 1; more consistent estimates at equal
	// mean cost: also > 1 (the §VI-G observation).
	in.EBPred = Dist{Mu: 0.1, Sigma: 0.05}
	if s := UseCaseASpeedup(in); s <= 2 {
		t.Errorf("cheap-estimate speedup = %g", s)
	}
	in.EBPred = Dist{Mu: 1, Sigma: 0.05}
	if s := UseCaseASpeedup(in); s <= 1 {
		t.Errorf("consistency-only speedup = %g", s)
	}
}

func TestPaperWorkedExampleUseCaseA(t *testing.T) {
	// §VI-G: unit-cost compressor and predictors, σ_e = 0.33, 100k
	// iterations, 40 procs. Our W-based model gives ≈1.8×; the paper
	// reports 2.56×. Pin the value so regressions are visible.
	in := UseCaseAInput{
		Compressor: Dist{Mu: 1, Sigma: 1},
		DataPred:   Dist{Mu: 1, Sigma: 1},
		EBPred:     Dist{Mu: 1, Sigma: 0.33},
		Searches:   100000,
		Procs:      40,
	}
	s := UseCaseASpeedup(in)
	if s < 1.5 || s > 2.6 {
		t.Errorf("worked example speedup = %g, expected in [1.5, 2.6]", s)
	}
}

func TestUseCaseBSpeedup(t *testing.T) {
	in := UseCaseBInput{
		Compressors: []Dist{{Mu: 5}, {Mu: 3}, {Mu: 4}},
		OptIndex:    0,
		Estimate:    Dist{Mu: 1e-6},
		Procs:       1,
	}
	// Serial: (5+3+4 + 5) / (≈0 + 5) = 17/5.
	if s := UseCaseBSpeedup(in); !almost(s, 17.0/5, 0.01) {
		t.Errorf("serial speedup = %g", s)
	}
	in.Procs = 3
	// Parallel: (5 + 5) / (≈0 + 5) = 2.
	if s := UseCaseBSpeedup(in); !almost(s, 2, 0.01) {
		t.Errorf("parallel speedup = %g", s)
	}
}

func TestInversionProbabilityWorkedExample(t *testing.T) {
	// §V-D: CR means 1,2,3 (best 3), variance .1; error variances
	// .0625/.125/.25/.5 → ≈3.9/6.9/12.3/20.8% inversions.
	crMean := []float64{3, 2, 1}
	crVar := []float64{0.1, 0.1, 0.1}
	want := map[float64]float64{0.0625: 0.040, 0.125: 0.069, 0.25: 0.123, 0.5: 0.208}
	for ev, expected := range want {
		p := InversionProbability(crMean, crVar, []float64{ev, ev, ev})
		if !almost(p, expected, 0.004) {
			t.Errorf("errVar=%g: inversion %.4f, want ≈%.3f", ev, p, expected)
		}
	}
	// No estimates: lower inversion rate than any noisy case.
	base := InversionProbability(crMean, crVar, nil)
	if base >= 0.04 {
		t.Errorf("baseline inversion %.4f", base)
	}
	// Degenerate inputs.
	if p := InversionProbability([]float64{5}, []float64{0.1}, nil); p != 0 {
		t.Errorf("single compressor inversion = %g", p)
	}
	if p := InversionProbability([]float64{3, 1}, []float64{0, 0}, nil); p != 0 {
		t.Errorf("deterministic separated inversion = %g", p)
	}
	if p := InversionProbability([]float64{1, 3}, []float64{0, 0}, nil); p != 1 {
		t.Errorf("deterministic inverted = %g", p)
	}
}

func TestUseCaseCSpeedup(t *testing.T) {
	in := UseCaseCInput{
		Compressor: Dist{Mu: 1, Sigma: 0},
		Estimate:   Dist{Mu: 1e-9},
		Buffers:    64,
		MemBuffers: 0,
		Procs:      1,
		MissRate:   0,
	}
	// Serial with free estimates: exactly 2× (two passes become one).
	if s := UseCaseCSpeedup(in); !almost(s, 2, 1e-6) {
		t.Errorf("serial free-estimate speedup = %g", s)
	}
	// Misses eat into the speedup.
	in.MissRate = 0.5
	if s := UseCaseCSpeedup(in); s >= 2 {
		t.Errorf("missing speedup penalty: %g", s)
	}
	// Costly estimates can make it a slowdown.
	in.MissRate = 0
	in.Estimate = Dist{Mu: 3}
	if s := UseCaseCSpeedup(in); s >= 1 {
		t.Errorf("expensive estimates still speed up: %g", s)
	}
}

func TestTrainingSpeedup(t *testing.T) {
	in := TrainingInput{
		Pred0:      Dist{Mu: 2},
		Pred1:      Dist{Mu: 1},
		Compressor: Dist{Mu: 1},
		Buffers0:   100,
		Buffers1:   50,
		Procs:      1,
	}
	// (100·3) / (50·2) = 3.
	if s := TrainingSpeedup(in); !almost(s, 3, 1e-9) {
		t.Errorf("training speedup = %g", s)
	}
}

func TestSearchEBMonotoneCurve(t *testing.T) {
	curve := func(eps float64) float64 { return 5 * math.Pow(eps/1e-6, 0.3) }
	eb := SearchEB(curve, 20, 1e-8, 1e-1, 40)
	if got := curve(eb); !almost(got, 20, 0.1) {
		t.Errorf("search achieved CR %g, want ≈20", got)
	}
}

func TestErrorInjectionGrowsWithNoise(t *testing.T) {
	curve := func(eps float64) float64 { return 5 * math.Pow(eps/1e-6, 0.3) }
	res := ErrorInjection(curve, 20, 1e-8, 1e-1, 25,
		[]float64{0.005, 0.02, 0.08}, 60, 3)
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	if res[0].ErrPct > res[2].ErrPct {
		t.Errorf("error not growing with noise: %v", res)
	}
	if res[2].ErrPct <= 0 {
		t.Errorf("8%% noise produced zero deviation")
	}
}

func TestMeasureDist(t *testing.T) {
	d := MeasureDist([]float64{1, 2, 3})
	if !almost(d.Mu, 2, 1e-12) || d.Sigma <= 0 {
		t.Errorf("measured = %+v", d)
	}
}

func TestMetricCostModel(t *testing.T) {
	m := MetricCostModel{CPairs: 1e-9, COuter: 1e-9, CEigen: 1e-9}
	// Cost grows with p at fixed k.
	if m.Cost(128, 8, 1, 1) <= m.Cost(64, 8, 1, 1) {
		t.Error("cost not growing with p")
	}
	// Acceleration only helps the offloaded terms.
	slow := m.Cost(96, 16, 1, 1)
	fast := m.Cost(96, 16, 1, 100)
	if fast >= slow {
		t.Error("gamma does not accelerate")
	}
	pairsOnly := MetricCostModel{CPairs: 1e-9}
	if pairsOnly.Cost(96, 8, 1, 100) != pairsOnly.Cost(96, 8, 1, 1) {
		t.Error("gamma affected the CPU-only pairwise term")
	}
}

func TestFitMetricCostRecoversConstants(t *testing.T) {
	truth := MetricCostModel{CPairs: 2e-9, COuter: 5e-10, CEigen: 3e-11}
	var ps, ks []int
	var secs []float64
	for _, p := range []int{32, 64, 96, 128} {
		for _, k := range []int{4, 8, 16} {
			ps = append(ps, p)
			ks = append(ks, k)
			secs = append(secs, truth.Cost(p, k, 1, 1))
		}
	}
	got := FitMetricCost(ps, ks, secs, 1, 1)
	for i, pair := range [][2]float64{
		{truth.CPairs, got.CPairs}, {truth.COuter, got.COuter}, {truth.CEigen, got.CEigen},
	} {
		if math.Abs(pair[0]-pair[1]) > 0.05*pair[0] {
			t.Errorf("constant %d: fit %g vs truth %g", i, pair[1], pair[0])
		}
	}
}
