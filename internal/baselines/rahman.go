package baselines

import (
	"math"
	"sort"

	"github.com/crestlab/crest/internal/featcache"
	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/predictors"
)

// The tree's shape: at most rahmanMaxDepth levels, and at least
// rahmanMinLeaf samples per leaf.
const (
	rahmanMaxDepth = 6
	rahmanMinLeaf  = 3
)

// Rahman is the decision-tree baseline in the style of Rahman et al.
// (§III: "a black-box approach leveraging decision trees combined with
// generally applicable statistical predictors"). It fits a CART
// regression tree of log(CR) on the same five statistical predictors the
// proposed method uses, so the comparison isolates the model family:
// piecewise-constant trees capture the grouping effects of Fig. 2 but
// cannot interpolate within a leaf, which is where the mixture regression
// wins.
type Rahman struct {
	root  *treeNode
	cache *featcache.Cache
}

// NewRahman returns the decision-tree baseline.
func NewRahman() *Rahman {
	return &Rahman{cache: featcache.New(predictors.Config{})}
}

// Name implements Method.
func (r *Rahman) Name() string { return "rahman" }

// ConcurrentPredictSafe implements ConcurrentPredictor: tree traversal is
// read-only and the feature cache is race-safe.
func (r *Rahman) ConcurrentPredictSafe() bool { return true }

type treeNode struct {
	// Leaf prediction (mean log-CR of the leaf's samples).
	value float64
	// Split definition; children nil for leaves.
	feature     int
	threshold   float64
	left, right *treeNode
}

// Fit implements Method with a greedy variance-reduction CART build.
func (r *Rahman) Fit(bufs []*grid.Buffer, crs []float64, eps float64) error {
	x := make([][]float64, len(bufs))
	y := make([]float64, len(bufs))
	for i, b := range bufs {
		feats, err := r.cache.Features(b, eps)
		if err != nil {
			return err
		}
		x[i] = feats
		y[i] = logCR(crs[i])
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	r.root = r.build(x, y, idx, 0)
	return nil
}

func (r *Rahman) build(x [][]float64, y []float64, idx []int, depth int) *treeNode {
	node := &treeNode{value: meanAt(y, idx)}
	if len(idx) < 2*rahmanMinLeaf || depth >= rahmanMaxDepth {
		return node
	}
	bestSSE := sseAt(y, idx)
	var bestFeature int = -1
	var bestThreshold float64
	d := len(x[idx[0]])
	vals := make([]float64, len(idx))
	for f := 0; f < d; f++ {
		for i, j := range idx {
			vals[i] = x[j][f]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for s := rahmanMinLeaf; s <= len(sorted)-rahmanMinLeaf; s++ {
			if sorted[s] == sorted[s-1] {
				continue
			}
			thr := (sorted[s] + sorted[s-1]) / 2
			var lSum, rSum float64
			var lN, rN int
			for _, j := range idx {
				if x[j][f] <= thr {
					lSum += y[j]
					lN++
				} else {
					rSum += y[j]
					rN++
				}
			}
			if lN < rahmanMinLeaf || rN < rahmanMinLeaf {
				continue
			}
			lMean, rMean := lSum/float64(lN), rSum/float64(rN)
			var sse float64
			for _, j := range idx {
				var m float64
				if x[j][f] <= thr {
					m = lMean
				} else {
					m = rMean
				}
				diff := y[j] - m
				sse += diff * diff
			}
			if sse < bestSSE-1e-12 {
				bestSSE = sse
				bestFeature = f
				bestThreshold = thr
			}
		}
	}
	if bestFeature < 0 {
		return node
	}
	var lIdx, rIdx []int
	for _, j := range idx {
		if x[j][bestFeature] <= bestThreshold {
			lIdx = append(lIdx, j)
		} else {
			rIdx = append(rIdx, j)
		}
	}
	node.feature = bestFeature
	node.threshold = bestThreshold
	node.left = r.build(x, y, lIdx, depth+1)
	node.right = r.build(x, y, rIdx, depth+1)
	return node
}

func meanAt(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, j := range idx {
		s += y[j]
	}
	return s / float64(len(idx))
}

func sseAt(y []float64, idx []int) float64 {
	m := meanAt(y, idx)
	var s float64
	for _, j := range idx {
		d := y[j] - m
		s += d * d
	}
	return s
}

// Predict implements Method.
func (r *Rahman) Predict(buf *grid.Buffer, eps float64) (float64, error) {
	if r.root == nil {
		return 0, ErrUntrained
	}
	feats, err := r.cache.Features(buf, eps)
	if err != nil {
		return 0, err
	}
	node := r.root
	for node.left != nil {
		if feats[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return math.Exp(node.value), nil
}

var _ Method = (*Rahman)(nil)
