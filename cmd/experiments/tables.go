package main

import (
	"fmt"

	crest "github.com/crestlab/crest"
)

func runTable2(cfg runConfig) error {
	nz, ny, nx := cfg.sizes()
	hur := crest.HurricaneDataset(crest.DataOptions{NZ: nz, NY: ny, NX: nx, Seed: cfg.seed})
	comp := crest.MustCompressor("szinterp")
	cache := crest.NewCRCache()

	// --- Out-of-sample worst-field comparison (top half of Table II) ---
	sim, err := crest.FieldSimilarity(hur.Fields, crest.PredictorConfig{})
	if err != nil {
		return err
	}
	eps := 1e-3
	type worst struct {
		field         string
		q10, q50, q90 float64
	}
	fmt.Println("Out-of-Sample (hurricane, train on 4 most similar fields, szinterp, 1e-3):")
	fmt.Printf("%-10s %-10s %12s %12s %12s\n", "method", "worst", "10%", "MedAPE", "90%")
	methods := map[string]func() crest.Method{
		"underwood": func() crest.Method { return crest.NewUnderwoodMethod() },
		"proposed":  func() crest.Method { return crest.NewProposedMethod(crest.EstimatorConfig{}) },
	}
	var t2CSV [][]string
	for _, name := range sortedKeys(methods) {
		m := methods[name]()
		w := worst{q50: -1}
		for ti, target := range sim.Fields {
			var trainBufs []*crest.Buffer
			for _, oi := range sim.Order(ti)[:4] {
				trainBufs = append(trainBufs, hur.Field(sim.Fields[oi]).Buffers...)
			}
			_, pairs, err := crest.OutOfSampleEvaluate(m, trainBufs, hur.Field(target).Buffers, comp, eps, cache)
			if err != nil {
				return fmt.Errorf("%s target %s: %w", name, target, err)
			}
			q10, q50, q90 := groupedMedAPE(pairs)
			if q50 > w.q50 {
				w = worst{field: target, q10: q10, q50: q50, q90: q90}
			}
		}
		fmt.Printf("%-10s %-10s %12.4g %12.4g %12.4g\n", name, w.field, w.q10, w.q50, w.q90)
		t2CSV = append(t2CSV, []string{"out-of-sample-worst", name, w.field, f64(w.q10), f64(w.q50), f64(w.q90)})
	}

	// --- In-sample on Miranda VX at 1e-6 (bottom half of Table II) ---
	mir := crest.MirandaDataset(crest.DataOptions{NZ: nz, NY: ny, NX: nx, Seed: cfg.seed})
	vx := mir.Field("velocityx")
	fmt.Println("\nIn-Sample (miranda velocityx, szinterp, 1e-6):")
	fmt.Printf("%-10s %12s %12s %12s\n", "method", "10%", "MedAPE", "90%")
	inMethods := []crest.Method{
		crest.NewUnderwoodMethod(),
		crest.NewTaoMethod(),
		crest.NewLuMethod(),
		crest.NewProposedMethod(crest.EstimatorConfig{}),
	}
	for _, m := range inMethods {
		q, _, err := crest.KFoldEvaluate(m, vx.Buffers, comp, 1e-6, 5, cfg.seed, cache)
		if err != nil {
			return fmt.Errorf("%s: %w", m.Name(), err)
		}
		fmt.Printf("%-10s %12.4g %12.4g %12.4g\n", m.Name(), q.Q10, q.Q50, q.Q90)
		t2CSV = append(t2CSV, []string{"in-sample-miranda-vx", m.Name(), "", f64(q.Q10), f64(q.Q50), f64(q.Q90)})
	}
	if err := cfg.writeCSV("table2_comparison", []string{"section", "method", "worst_field", "q10", "medape", "q90"}, t2CSV); err != nil {
		return err
	}
	fmt.Println("(expected shape: proposed ≤ underwood ≪ tao < lu in-sample;")
	fmt.Println(" out-of-sample, underwood's unguarded extrapolation blows up while")
	fmt.Println(" proposed stays bounded)")
	return nil
}

func runTable3(cfg runConfig) error {
	nz, ny, nx := cfg.sizes()
	ds := crest.HurricaneDataset(crest.DataOptions{NZ: nz, NY: ny, NX: nx, Seed: cfg.seed})
	sim, err := crest.FieldSimilarity(ds.Fields, crest.PredictorConfig{})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s", "")
	for _, f := range sim.Fields {
		fmt.Printf(" %8s", truncName(f, 8))
	}
	fmt.Println()
	for i, f := range sim.Fields {
		fmt.Printf("%-8s", truncName(f, 8))
		for j := range sim.Fields {
			fmt.Printf(" %8.1f", sim.D[i][j])
		}
		fmt.Println()
		_ = f
	}
	var t3CSV [][]string
	for i := range sim.Fields {
		row := []string{sim.Fields[i]}
		for j := range sim.Fields {
			row = append(row, f64(sim.D[i][j]))
		}
		t3CSV = append(t3CSV, row)
	}
	if err := cfg.writeCSV("table3_similarity", append([]string{"field"}, sim.Fields...), t3CSV); err != nil {
		return err
	}
	fmt.Printf("\nself-distance baseline (diagonal mean): %.2f\n", sim.SelfDistanceBaseline())
	fmt.Println("(hydrometeor fields cluster; QVAPOR and V are the far outliers,")
	fmt.Println(" matching the structure of the paper's Table III)")
	return nil
}

func truncName(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
