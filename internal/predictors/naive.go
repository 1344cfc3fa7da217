package predictors

import (
	"math"

	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/linalg"
	"github.com/crestlab/crest/internal/stats"
)

// naive.go is the unfused reference implementation: each metric runs its
// own pass over the blocks, re-vectorizing and re-deriving shared
// quantities. It exists (a) as a differential-testing oracle for the fused
// §IV-C implementation and (b) to quantify the benefit of fusing the
// routines "into a single routine to minimize loads", one of the paper's
// design points (see BenchmarkAblationFusedMetrics). Prior approaches such
// as Underwood's compute their metrics in exactly this one-pass-per-metric
// style, which is where the paper's training-time advantage comes from.

// NaiveComputeDataset computes the same DatasetFeatures as ComputeDataset
// with one independent pass per metric and no parallelism.
func NaiveComputeDataset(buf *grid.Buffer, cfg Config) (DatasetFeatures, error) {
	cfg = cfg.withDefaults()
	var out DatasetFeatures

	sd, err := naiveSD(buf, cfg)
	if err != nil {
		return out, err
	}
	sc, err := naiveSC(buf, cfg)
	if err != nil {
		return out, err
	}
	cg, err := naiveCodingGain(buf, cfg)
	if err != nil {
		return out, err
	}
	trunc, profile, err := naiveCovSVD(buf, cfg)
	if err != nil {
		return out, err
	}
	out.SD = sd
	out.SC = sc
	out.CodingGain = cg
	out.CovSVDTrunc = trunc
	out.SingularProfile = profile
	return out, nil
}

func naiveSD(buf *grid.Buffer, cfg Config) (float64, error) {
	t, err := grid.NewBlocking(buf, cfg.K)
	if err != nil {
		return 0, err
	}
	b := t.NumBlocks()
	vecs := standardizedVecs(buf, t)
	logB := math.Log2(float64(b))
	var sd float64
	for i := 0; i < b; i++ {
		var sumDs, sumDsDe float64
		for j := 0; j < b; j++ {
			if i == j {
				continue
			}
			ds := t.ManhattanDist(i, j)
			de := stats.EuclideanDist(vecs[i], vecs[j])
			sumDs += ds
			sumDsDe += ds * de
		}
		wInter := 0.0
		if sumDs > 0 {
			wInter = sumDsDe / sumDs
		}
		sd += stats.StdDev(vecs[i]) * wInter * logB / float64(b)
	}
	return sd, nil
}

func naiveSC(buf *grid.Buffer, cfg Config) (float64, error) {
	t, err := grid.NewBlocking(buf, cfg.K)
	if err != nil {
		return 0, err
	}
	b := t.NumBlocks()
	vecs := standardizedVecs(buf, t)
	var num, den float64
	for i := 0; i < b; i++ {
		var sumDs, sumDsV float64
		for j := 0; j < b; j++ {
			if i == j {
				continue
			}
			ds := t.ManhattanDist(i, j)
			sumDs += ds
			sumDsV += ds * math.Abs(stats.Pearson(vecs[i], vecs[j]))
		}
		scb := 0.0
		if sumDs > 0 {
			scb = sumDsV / sumDs
		}
		w := stats.StdDev(vecs[i])
		num += scb * w
		den += w
	}
	if den == 0 {
		return 0, nil
	}
	return num / den, nil
}

func naiveSecondMoment(buf *grid.Buffer, cfg Config) (*linalg.Matrix, error) {
	t, err := grid.NewBlocking(buf, cfg.K)
	if err != nil {
		return nil, err
	}
	b := t.NumBlocks()
	k2 := cfg.K * cfg.K
	sigma := linalg.NewMatrix(k2, k2)
	vecs := standardizedVecs(buf, t)
	for i := 0; i < b; i++ {
		sigma.AddOuter(vecs[i], 1/float64(b))
	}
	return sigma, nil
}

// standardizedVecs vectorizes blocks on the globally standardized buffer,
// matching the fused path's scale-free convention.
func standardizedVecs(buf *grid.Buffer, t *grid.Blocking) [][]float64 {
	vecs := t.VecAll()
	gm, gsd := stats.MeanStd(buf.Data)
	if gsd == 0 {
		gsd = 1
	}
	for _, vec := range vecs {
		for j, v := range vec {
			vec[j] = (v - gm) / gsd
		}
	}
	return vecs
}

func naiveCodingGain(buf *grid.Buffer, cfg Config) (float64, error) {
	sigma, err := naiveSecondMoment(buf, cfg)
	if err != nil {
		return 0, err
	}
	eig := linalg.SymEigenValues(sigma)
	return codingGain(sigma, eig), nil
}

// NaiveCovSVDTrunc computes only the CovSVD truncation through the
// standalone path, the way prior approaches such as Underwood's compute
// it.
func NaiveCovSVDTrunc(buf *grid.Buffer, cfg Config) (float64, error) {
	trunc, _, err := naiveCovSVD(buf, cfg.withDefaults())
	return trunc, err
}

func naiveCovSVD(buf *grid.Buffer, cfg Config) (float64, [ProfileDim]float64, error) {
	sigma, err := naiveSecondMoment(buf, cfg)
	if err != nil {
		return 0, [ProfileDim]float64{}, err
	}
	trunc, profile := covSVDTrunc(linalg.SymEigenValues(sigma))
	return trunc, profile, nil
}
