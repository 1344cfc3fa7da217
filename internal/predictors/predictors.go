// Package predictors implements the paper's five statistical
// compressibility predictors over blocked 2D buffers (§IV-A):
//
//   - Spatial Diversity (SD): spatially-weighted entropy combining
//     intra-block variability (block standard deviation) and inter-block
//     variability (location-weighted value distances).
//   - Spatial Correlation (SC): intra-block-weighted average of
//     location-weighted absolute Pearson correlations between blocks.
//   - Coding Gain (CG): geometric-mean ratio of the block second-moment
//     matrix diagonal to its eigenvalue spectrum — the KLT transform-coding
//     gain of Goyal's rate-distortion analysis.
//   - Spatial Smoothness (CovSVD-trunc): percentage of singular values of
//     the block covariance needed to reach 99% of total variance.
//   - Generic Distortion (D̂): the error-bound-specific rate-distortion
//     estimate log2 D̂ = 2H − 2H^q − log2 12 (see ComputeEB for the two
//     documented deviations from the paper's printed formula).
//
// The first four are dataset-specific but error-bound agnostic
// ("dset_predictors" in Algorithm 2) and share ONE fused traversal of the
// block matrix (linalg.FusedBlockMoments standardizes, computes every
// per-block moment, and accumulates the k²×k² second-moment matrix in a
// single pass) followed by one Gram-driven pairwise pass; D̂ depends on
// the error bound ("eb_predictors"). Following §IV-C, the pairwise pass
// sweeps the lower triangle of the Gram matrix G = V·Vᵀ in blocks of
// rows: the cache-blocked (and, on amd64, SIMD) kernel in
// internal/linalg fills each block in panels striped across workers,
// and the calling goroutine sweeps its rows in order. Every float64
// reduction combines per-index terms in fixed index order, and the SD/SC
// totals are one serial loop, so results are bit-identical for every
// worker count (the earlier compare-and-swap accumulators made the SD/SC
// reduction order follow goroutine scheduling). Next to the four
// dataset predictors, ComputeDataset returns the leading ProfileDim
// values of the normalized singular-value decay, the field signature of
// §VI-E (internal/fieldsim).
//
// The whole pipeline is generic over the stored element type and has one
// front half, the row-fed core in stream.go: in-memory buffers and CRBS
// streams both feed it rows. The float64 instantiation is the bit-exact
// reference; the float32 instantiation keeps dtype-1 stream payloads
// narrow in storage — every accumulator still runs in float64, and the
// pair terms widen each float32 Gram entry — so features agree with the
// float64 path within the documented ULP bounds
// (see DESIGN.md "Performance" and the f32-vs-f64 differential suite).
// Per-call working memory comes from a sync.Pool (see scratch.go) and
// every result is a fixed-size value, so a warm serial ComputeDataset
// allocates nothing.
package predictors

import (
	"fmt"
	"math"
	"time"

	"github.com/crestlab/crest/internal/crerr"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/linalg"
	"github.com/crestlab/crest/internal/obs"
	"github.com/crestlab/crest/internal/parallel"
	"github.com/crestlab/crest/internal/stats"
)

// Per-predictor latency histograms, recorded into the process-wide
// registry on every successful computation. The four dataset predictors
// share fused passes (§IV-C), so shared cost is split by a fixed,
// documented attribution — each histogram reports an even-split share of
// one pass, not an independently measured walk: the fused
// standardize/moments/second-moment traversal is divided equally across
// all four; the pairwise pass and its reduction are split between SD and
// SC; the eigendecomposition is split between CodingGain and
// CovSVDTrunc, each of which then adds its own (cheap) finishing stage.
// See DESIGN.md "Observability".
var (
	obsSD   = obs.Default().Histogram("predictor_sd_seconds", nil)
	obsSC   = obs.Default().Histogram("predictor_sc_seconds", nil)
	obsCG   = obs.Default().Histogram("predictor_coding_gain_seconds", nil)
	obsSVD  = obs.Default().Histogram("predictor_cov_svd_seconds", nil)
	obsDist = obs.Default().Histogram("predictor_distortion_seconds", nil)
)

// NumFeatures is the number of covariates of the prediction model (§IV-B).
const NumFeatures = 5

// FeatureNames lists the feature vector components in order.
var FeatureNames = [NumFeatures]string{
	"SD", "SC", "CodingGain", "CovSVDTrunc", "Distortion",
}

// Config tunes the predictor computation.
type Config struct {
	// K is the block edge length (default 8).
	K int
	// Workers bounds the parallelism (default: GOMAXPROCS).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 8
	}
	return c
}

// ProfileDim is the number of leading singular values kept in
// DatasetFeatures.SingularProfile, the field signature of §VI-E.
const ProfileDim = 8

// DatasetFeatures are the error-bound-agnostic predictors of one buffer.
type DatasetFeatures struct {
	SD          float64 // spatial diversity
	SC          float64 // spatial correlation
	CodingGain  float64 // log2 KLT coding gain
	CovSVDTrunc float64 // % singular values for 99% variance

	// SingularProfile is the relative decay of the leading singular
	// values of the block covariance (σ_i / Σσ), consumed by the
	// field-similarity analysis of §VI-E. Entries past k² are 0.
	SingularProfile [ProfileDim]float64
}

// Features is the full 5-dimensional covariate vector for one buffer and
// one error bound.
type Features struct {
	DatasetFeatures
	// Distortion is log2 D̂, the generic distortion on the log scale.
	Distortion float64
}

// Vector returns the model covariates in FeatureNames order.
func (f Features) Vector() []float64 {
	return []float64{f.SD, f.SC, f.CodingGain, f.CovSVDTrunc, f.Distortion}
}

// fillBlockStats runs the fused traversal over the raw block matrix in
// s.vecs: one pass standardizes every block vector in place against the
// global moments (gm, gsd), computes the per-block mean/sd/norm², and
// accumulates the k²×k² second-moment lower triangle (see
// linalg.FusedBlockMoments — bit-identical at float64 to the separate
// passes it replaced). Block positions land as floats so the pairwise
// pass computes Manhattan distances without per-pair div/mod.
//
// Standardizing first makes the four error-bound-agnostic predictors
// scale-free descriptors of *spatial structure*: two fields with the
// same shape but different physical units get the same SD/SC/CG/CovSVD,
// which is what makes out-of-field model transfer (§VI-C) possible. The
// amplitude-versus-bound information the compressors react to enters
// through the error-bound-specific generic distortion, computed on the
// raw values.
func fillBlockStats[F linalg.Float](s *dsScratch[F], gm, gsd float64, b, bc int) {
	if gsd == 0 {
		gsd = 1
	}
	linalg.FusedBlockMoments(s.vecs, gm, gsd, 1/float64(b), s.mean, s.sd, s.norm2, s.lower)
	for i := 0; i < b; i++ {
		s.posR[i], s.posC[i] = float64(i/bc), float64(i%bc)
	}
}

// pairwisePass fills s.wInter and s.scBlock, the per-block Σ Ds·De / Σ Ds
// and Σ Ds·|ρ| / Σ Ds, from the lower triangle of the Gram matrix
// G = V·Vᵀ. It runs in blocks of pairBlockRows rows, or of
// pairBlockMinElems/B rows when that is more: each block is filled
// from the transposed block matrix (the layout the SIMD kernels
// broadcast over) in symPanelRows-row panels striped across workers,
// then swept on the calling goroutine (linalg.PairSweepF64: each pair's
// terms computed once, in row order). A float32 row is widened to
// float64 just before it is swept, so both element types fold their
// pairs in float64 with the float64 block stats. The result does not
// depend on the block height or the worker count.
func (s *dsScratch[F]) pairwisePass(b, workers int) {
	s.pairBlocks(b, workers, max(pairBlockRows, pairBlockMinElems/b&^(symPanelRows-1)))
}

// pairBlocks is pairwisePass with the block height a parameter, a
// positive multiple of symPanelRows, so tests can hold every height to
// the same bits.
func (s *dsScratch[F]) pairBlocks(b, workers, height int) {
	k2 := len(s.backing) / b
	s.vt = grow(s.vt, b*k2)
	linalg.TransposeInto(s.vecs, s.vt)
	s.gram = grow(s.gram, min(height, b)*b)
	wide, _ := any(s.gram).([]float64)
	if wide == nil {
		s.row64 = grow(s.row64, b)
	}
	// The serial branch repeats the loop body instead of calling the
	// parallel helper: fn escapes into its goroutine path, so even a
	// workers==1 call would heap-allocate the closure — which is
	// exactly what the zero-steady-state-allocation contract of the
	// saturated batch path forbids.
	serial := parallel.Workers(workers) == 1
	for lo := 0; lo < b; lo += height {
		hi := min(lo+height, b)
		nPanels := (hi - lo + symPanelRows - 1) / symPanelRows
		if serial {
			for p := 0; p < nPanels; p++ {
				s.fillPanel(lo, hi, p)
			}
		} else {
			parallel.ForEachDynamic(nPanels, workers, func(p int) { s.fillPanel(lo, hi, p) })
		}
		if wide != nil {
			linalg.PairSweepF64(wide, lo, hi, b, s.posR, s.posC, s.norm2, s.mean, s.sd, k2, s.pairDs, s.wInter, s.scBlock)
			continue
		}
		for i := lo; i < hi; i++ {
			row := s.row64[:i]
			for j, g := range s.gram[(i-lo)*b : (i-lo)*b+i] {
				row[j] = float64(g)
			}
			linalg.PairSweepF64(row, i, i+1, 0, s.posR, s.posC, s.norm2, s.mean, s.sd, k2, s.pairDs, s.wInter, s.scBlock)
		}
	}
	for i := 0; i < b; i++ {
		if sumDs := s.pairDs[i]; sumDs > 0 {
			s.wInter[i] /= sumDs
			s.scBlock[i] /= sumDs
		} else {
			// The scratch is pooled; stale values must not leak through.
			s.wInter[i], s.scBlock[i] = 0, 0
		}
	}
}

// fillPanel fills panel p of the block of rows [lo, hi): its rows'
// lower-triangle Gram entries, at row stride B from the top of s.gram.
func (s *dsScratch[F]) fillPanel(lo, hi, p int) {
	b := len(s.vecs)
	plo := lo + p*symPanelRows
	phi := min(plo+symPanelRows, hi)
	linalg.GramBlockT(s.vecs, s.vt, plo, phi, 0, phi, s.gram[(plo-lo)*b:], b)
}

// ComputeDataset evaluates the four error-bound-agnostic predictors in one
// fused pass over block pairs (§IV-C). It validates the buffer and feeds
// its rows to the pooled stream core, so the result is bit-identical to
// streaming the same slice. Results are bit-identical across worker
// counts and across calls: every reduction runs in fixed index order
// (see pairwisePass, finishDataset, linalg.FusedBlockMoments).
func ComputeDataset(buf *grid.Buffer, cfg Config) (DatasetFeatures, error) {
	if err := buf.Validate(grid.DefaultValidation); err != nil {
		return DatasetFeatures{}, fmt.Errorf("predictors: %w", err)
	}
	df, _, err := featurize(buf.Rows, buf.Cols, buf.Data, nil, cfg)
	return df, err
}

// featurize feeds a row-major rows×cols slice row by row through the
// pooled stream core — the code path every CRBS stream takes — and
// returns the dataset features plus one distortion per eps. It is the
// single in-memory front half, generic over the element type; callers
// validate the data first.
func featurize[F linalg.Float](rows, cols int, data []F, eps []float64, cfg Config) (DatasetFeatures, []float64, error) {
	f, err := getCore[F](rows, cols, cfg, "buffer")
	if err != nil {
		return DatasetFeatures{}, nil, err
	}
	defer putCore(f)
	for r := 0; r < rows; r++ {
		if err := f.AddRow(data[r*cols : (r+1)*cols]); err != nil {
			return DatasetFeatures{}, nil, err
		}
	}
	return f.Finish(eps...)
}

// finishDataset evaluates the four dataset predictors from a scratch
// whose block matrix V is already standardized and whose moments and
// second-moment triangle are filled (fillBlockStats). It is the back
// half of every feature computation; its fixed-order kernels are what
// make the result independent of the worker count. setup is the
// fused-traversal cost attributed across the four predictors'
// histograms.
func finishDataset[F linalg.Float](s *dsScratch[F], b, k2, workers int, setup float64) DatasetFeatures {
	// Pairwise pass: per-block inter weights and spatial correlations,
	// driven off the Gram matrix (see pairwisePass for which parts run
	// across workers).
	tPair := time.Now()
	s.pairwisePass(b, workers)

	// Spatial Diversity: SD = −Σ_b w^intra_b w^inter_b p_b log2 p_b with
	// p_b = 1/B, and Spatial Correlation: SC = Σ SC_b w^intra / Σ w^intra.
	// Each sum runs serially over i = 0 → B−1 in one chain, so the totals
	// are independent of the worker count.
	logB := math.Log2(float64(b))
	var sd, scNum, scDen float64
	for i := 0; i < b; i++ {
		sd += s.sd[i] * s.wInter[i] * logB / float64(b)
		scNum += s.scBlock[i] * s.sd[i]
		scDen += s.sd[i]
	}
	sc := 0.0
	if scDen > 0 {
		sc = scNum / scDen
	}
	pair := time.Since(tPair).Seconds()

	// The block second-moment matrix Σ = (1/B) Σ_b X^b (X^b)ᵀ was
	// already accumulated by the fused traversal (fillBlockStats) in
	// linalg.SecondMomentLower's exact serial order; unpack the triangle
	// and eigendecompose into the pooled working set.
	tCov := time.Now()
	sigma := linalg.Matrix{Rows: k2, Cols: k2, Data: s.sigma}
	idx := 0
	for i := 0; i < k2; i++ {
		for j := 0; j <= i; j++ {
			v := s.lower[idx]
			s.sigma[i*k2+j] = v
			s.sigma[j*k2+i] = v
			idx++
		}
	}
	eig := linalg.SymEigenValuesInto(&sigma, s.eigVals, s.eigWork)
	covEig := time.Since(tCov).Seconds()

	tCG := time.Now()
	cg := codingGain(&sigma, eig)
	cgOwn := time.Since(tCG).Seconds()
	tTrunc := time.Now()
	trunc, profile := covSVDTrunc(eig)
	truncOwn := time.Since(tTrunc).Seconds()

	// Record per-predictor cost under the documented fused-pass
	// attribution (see the histogram declarations above).
	share := setup / 4
	obsSD.Observe(share + pair/2)
	obsSC.Observe(share + pair/2)
	obsCG.Observe(share + covEig/2 + cgOwn)
	obsSVD.Observe(share + covEig/2 + truncOwn)

	return DatasetFeatures{
		SD:              sd,
		SC:              sc,
		CodingGain:      cg,
		CovSVDTrunc:     trunc,
		SingularProfile: profile,
	}
}

// codingGain returns the log2 transform-coding gain
// log2[(Π Σ_ii)^{1/k²} / (Π λ_i)^{1/k²}] of the block second-moment
// matrix. The log form keeps the feature on a stable scale; the paper's
// ratio is recovered as 2^CG.
func codingGain(sigma *linalg.Matrix, eig []float64) float64 {
	n := sigma.Rows
	// Eigenvalues at round-off level are numerical noise whose logs would
	// dominate the geometric mean; floor the spectrum relative to its
	// largest value (and to the diagonal scale) before taking logs.
	var scale float64
	for i := 0; i < n; i++ {
		if d := sigma.At(i, i); d > scale {
			scale = d
		}
	}
	if len(eig) > 0 && eig[0] > scale {
		scale = eig[0]
	}
	floor := math.Max(1e-300, 1e-12*scale)
	var logDiag, logEig float64
	for i := 0; i < n; i++ {
		logDiag += math.Log2(math.Max(sigma.At(i, i), floor))
		logEig += math.Log2(math.Max(eig[i], floor))
	}
	return (logDiag - logEig) / float64(n)
}

// covSVDTrunc returns the percentage of singular values needed to reach
// 99% of the spectrum mass, plus the normalized decay profile of the
// leading ProfileDim values.
func covSVDTrunc(eig []float64) (float64, [ProfileDim]float64) {
	n := len(eig)
	var total float64
	for _, v := range eig {
		if v > 0 {
			total += v
		}
	}
	var profile [ProfileDim]float64
	if total == 0 {
		return 100.0 / float64(n), profile // degenerate: rank ≤ 1 behavior
	}
	var cum float64
	m := n
	for i, v := range eig {
		if v > 0 {
			cum += v / total
		}
		if cum >= 0.99 {
			m = i + 1
			break
		}
	}
	for i, v := range eig[:min(n, ProfileDim)] {
		if v < 0 {
			v = 0
		}
		profile[i] = v / total
	}
	return 100 * float64(m) / float64(n), profile
}

// ComputeEB evaluates the error-bound-specific generic distortion of
// §IV-A on the log2 scale: log2 D̂ = 2H − 2H^q − log2 12, where H is the
// histogram entropy estimate of the data distribution and H^q the entropy
// of the ε-quantized values α(x, ε) = ⌊x/ε⌋·ε.
//
// Two deliberate deviations from the paper's printed formula, both
// documented in DESIGN.md: (1) the entropies are estimated over the whole
// buffer rather than per k²-sample block, because a k²-sample empirical
// entropy saturates at log2 k² bits and erases the error-bound signal at
// tight bounds; (2) the rate term is the per-sample quantized entropy (the
// classical Goyal form D = (1/12)·2^{2h}·2^{−2R}) rather than H/k², which
// would divide a per-sample quantity by k² a second time.
//
// The distortion does not depend on cfg; the parameter keeps the
// signature every feature function shares.
func ComputeEB(buf *grid.Buffer, eps float64, cfg Config) (float64, error) {
	if err := validateEps(eps); err != nil {
		return 0, err
	}
	if err := buf.Validate(grid.DefaultValidation); err != nil {
		return 0, fmt.Errorf("predictors: %w", err)
	}
	t0 := time.Now()
	h := stats.HistogramEntropy(buf.Data, ebBins)
	hq := stats.QuantizedEntropy(buf.Data, eps)
	obsDist.Observe(time.Since(t0).Seconds())
	return distortion(h, hq), nil
}

// ebBins is the histogram resolution of the entropy estimate H.
const ebBins = 1024

// distortion is log2 D̂ = 2H − 2H^q − log2 12 from the histogram entropy
// H and the quantized entropy H^q.
func distortion(h, hq float64) float64 {
	return 2*h - 2*hq - math.Log2(12)
}

func validateEps(eps float64) error {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return fmt.Errorf("predictors: %w: error bound must be positive and finite, got %g",
			crerr.ErrInvalidBuffer, eps)
	}
	return nil
}

// Compute evaluates the full 5-feature covariate vector.
func Compute(buf *grid.Buffer, eps float64, cfg Config) (Features, error) {
	df, err := ComputeDataset(buf, cfg)
	if err != nil {
		return Features{}, err
	}
	d, err := ComputeEB(buf, eps, cfg)
	if err != nil {
		return Features{}, err
	}
	return Features{DatasetFeatures: df, Distortion: d}, nil
}

// Combine merges previously computed dataset features with a fresh
// error-bound-specific distortion, the split Algorithm 2 uses to avoid
// recomputation across error bounds.
func Combine(df DatasetFeatures, distortion float64) Features {
	return Features{DatasetFeatures: df, Distortion: distortion}
}
