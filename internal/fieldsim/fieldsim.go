// Package fieldsim implements the cheaper-to-train machinery of §VI-E:
// fields are summarized by the distribution of the relative singular-value
// decay of their block covariance across 2D slices, pairwise dissimilarity
// is the Mahalanobis distance between those distributions (Table III),
// similar fields are explored first when assembling training data
// (Fig. 5), and a minimal covering training set is selected by exact
// set cover for realistic field counts with a greedy fallback (the paper
// uses a SAT solver with a greedy 2-approximation fallback).
package fieldsim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/linalg"
	"github.com/crestlab/crest/internal/predictors"
)

// Profiles returns the per-slice decay signatures of one field: each row
// is the slice's predictors.DatasetFeatures.SingularProfile, the first
// predictors.ProfileDim entries of the normalized singular-value decay of
// its block covariance.
func Profiles(field *grid.Field, cfg predictors.Config) ([][]float64, error) {
	out := make([][]float64, 0, len(field.Buffers))
	for _, b := range field.Buffers {
		df, err := predictors.ComputeDataset(b, cfg)
		if err != nil {
			return nil, fmt.Errorf("fieldsim: %s/%s: %w", field.Dataset, field.Name, err)
		}
		row := df.SingularProfile
		out = append(out, row[:])
	}
	return out, nil
}

func meanOf(rows [][]float64) []float64 {
	d := len(rows[0])
	mu := make([]float64, d)
	for _, r := range rows {
		for j, v := range r {
			mu[j] += v
		}
	}
	for j := range mu {
		mu[j] /= float64(len(rows))
	}
	return mu
}

// pooledCov accumulates the within-group covariance of two profile sets.
func pooledCov(a, b [][]float64) *linalg.Matrix {
	d := len(a[0])
	cov := linalg.NewMatrix(d, d)
	add := func(rows [][]float64) {
		mu := meanOf(rows)
		diff := make([]float64, d)
		for _, r := range rows {
			for j := range diff {
				diff[j] = r[j] - mu[j]
			}
			cov.AddOuter(diff, 1)
		}
	}
	add(a)
	add(b)
	n := len(a) + len(b) - 2
	if n < 1 {
		n = 1
	}
	cov.Scale(1 / float64(n))
	// Regularize: profile components can be nearly collinear.
	for i := 0; i < d; i++ {
		cov.Add(i, i, 1e-8)
	}
	return cov
}

// Distance returns the Mahalanobis distance between the decay-profile
// distributions of two profile sets.
func Distance(a, b [][]float64) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, errors.New("fieldsim: empty profile set")
	}
	cov := pooledCov(a, b)
	return linalg.Mahalanobis(meanOf(a), meanOf(b), cov)
}

// Matrix is a labelled symmetric dissimilarity matrix (Table III).
type Matrix struct {
	Fields []string
	D      [][]float64
}

// SimilarityMatrix computes all pairwise field distances. The diagonal is
// the self-distance between the even and odd slices of the same field — a
// nonzero estimator baseline exactly as Table III's diagonal shows.
func SimilarityMatrix(fields []*grid.Field, cfg predictors.Config) (*Matrix, error) {
	n := len(fields)
	profiles := make([][][]float64, n)
	for i, f := range fields {
		p, err := Profiles(f, cfg)
		if err != nil {
			return nil, err
		}
		if len(p) < 4 {
			return nil, fmt.Errorf("fieldsim: field %s has %d slices, need ≥ 4", f.Name, len(p))
		}
		profiles[i] = p
	}
	m := &Matrix{Fields: make([]string, n), D: make([][]float64, n)}
	for i, f := range fields {
		m.Fields[i] = f.Name
		m.D[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		even, odd := splitHalves(profiles[i])
		d, err := Distance(even, odd)
		if err != nil {
			return nil, err
		}
		m.D[i][i] = d
		for j := i + 1; j < n; j++ {
			d, err := Distance(profiles[i], profiles[j])
			if err != nil {
				return nil, err
			}
			m.D[i][j] = d
			m.D[j][i] = d
		}
	}
	return m, nil
}

func splitHalves(p [][]float64) (even, odd [][]float64) {
	for i, r := range p {
		if i%2 == 0 {
			even = append(even, r)
		} else {
			odd = append(odd, r)
		}
	}
	return even, odd
}

// Order returns the indices of all fields except target, sorted by
// ascending distance to target — the exploration order of Fig. 5.
func (m *Matrix) Order(target int) []int {
	idx := make([]int, 0, len(m.Fields)-1)
	for i := range m.Fields {
		if i != target {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		da, db := m.D[target][idx[a]], m.D[target][idx[b]]
		if da != db {
			return da < db
		}
		return idx[a] < idx[b] // deterministic tie-break
	})
	return idx
}

// FieldIndex returns the index of a named field, or -1.
func (m *Matrix) FieldIndex(name string) int {
	for i, f := range m.Fields {
		if f == name {
			return i
		}
	}
	return -1
}

// Covers builds the coverage relation of §VI-E: training set member i
// covers field j when d(i, j) ≤ radius; every field covers itself.
func (m *Matrix) Covers(radius float64) [][]bool {
	n := len(m.Fields)
	cov := make([][]bool, n)
	for i := range cov {
		cov[i] = make([]bool, n)
		for j := range cov[i] {
			cov[i][j] = i == j || m.D[i][j] <= radius
		}
	}
	return cov
}

// ErrNoCover reports an infeasible covering instance.
var ErrNoCover = errors.New("fieldsim: no covering set exists")

// MinimalCover solves the minimal-training-set problem exactly for up to
// 20 fields (bitmask enumeration ordered by set size — the role the
// paper's SAT solver plays) and greedily beyond that.
func MinimalCover(covers [][]bool, required []int) ([]int, error) {
	n := len(covers)
	if n == 0 {
		return nil, nil
	}
	if len(required) == 0 {
		required = make([]int, n)
		for i := range required {
			required[i] = i
		}
	}
	if n <= 20 {
		return exactCover(covers, required)
	}
	return GreedyCover(covers, required)
}

// exactCover enumerates candidate sets in order of increasing cardinality.
func exactCover(covers [][]bool, required []int) ([]int, error) {
	n := len(covers)
	var need uint32
	for _, r := range required {
		need |= 1 << uint(r)
	}
	coverMask := make([]uint32, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if covers[i][j] {
				coverMask[i] |= 1 << uint(j)
			}
		}
	}
	best := -1
	var bestSet uint32
	limit := uint32(1) << uint(n)
	for s := uint32(1); s < limit; s++ {
		size := bits.OnesCount32(s)
		if best >= 0 && size >= best {
			continue
		}
		var got uint32
		for i := 0; i < n; i++ {
			if s&(1<<uint(i)) != 0 {
				got |= coverMask[i]
			}
		}
		if got&need == need {
			best = size
			bestSet = s
		}
	}
	if best < 0 {
		return nil, ErrNoCover
	}
	var out []int
	for i := 0; i < n; i++ {
		if bestSet&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out, nil
}

// GreedyCover is the ln(n)-approximate greedy set cover used when the
// field count makes exact search unnecessary work (the paper's O(N)
// fallback for large applications).
func GreedyCover(covers [][]bool, required []int) ([]int, error) {
	n := len(covers)
	if len(required) == 0 {
		required = make([]int, n)
		for i := range required {
			required[i] = i
		}
	}
	needed := make(map[int]bool, len(required))
	for _, r := range required {
		needed[r] = true
	}
	var chosen []int
	used := make([]bool, n)
	for len(needed) > 0 {
		best, bestGain := -1, 0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			gain := 0
			for j := range needed {
				if covers[i][j] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return nil, ErrNoCover
		}
		used[best] = true
		chosen = append(chosen, best)
		for j := range needed {
			if covers[best][j] {
				delete(needed, j)
			}
		}
	}
	sort.Ints(chosen)
	return chosen, nil
}

// SelfDistanceBaseline returns the mean diagonal of the matrix, the
// estimator's intrinsic noise floor (≈8.9 in the paper's Table III).
func (m *Matrix) SelfDistanceBaseline() float64 {
	var s float64
	for i := range m.Fields {
		s += m.D[i][i]
	}
	if len(m.Fields) == 0 {
		return math.NaN()
	}
	return s / float64(len(m.Fields))
}
