package fieldsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/predictors"
	"github.com/crestlab/crest/internal/synthdata"
)

func hurricaneFields(t *testing.T) []*grid.Field {
	t.Helper()
	ds := synthdata.Hurricane(synthdata.Options{NZ: 10, NY: 48, NX: 48, Seed: 3})
	return ds.Fields
}

func TestProfilesShape(t *testing.T) {
	fields := hurricaneFields(t)
	p, err := Profiles(fields[0], predictors.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != len(fields[0].Buffers) {
		t.Fatalf("%d profiles", len(p))
	}
	for _, row := range p {
		if len(row) != predictors.ProfileDim {
			t.Fatalf("profile dim %d", len(row))
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	fields := hurricaneFields(t)
	pa, err := Profiles(fields[0], predictors.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Profiles(fields[7], predictors.Config{}) // TC: very different
	if err != nil {
		t.Fatal(err)
	}
	dab, err := Distance(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	dba, err := Distance(pb, pa)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric up to floating-point association order in the pooled
	// covariance accumulation.
	if diff := dab - dba; diff > 1e-9*(1+dab) || diff < -1e-9*(1+dab) {
		t.Errorf("distance not symmetric: %g vs %g", dab, dba)
	}
	if dab <= 0 {
		t.Errorf("distinct fields distance %g", dab)
	}
	if _, err := Distance(nil, pa); err == nil {
		t.Error("empty profile set accepted")
	}
}

func TestSimilarityMatrixStructure(t *testing.T) {
	fields := hurricaneFields(t)
	m, err := SimilarityMatrix(fields, predictors.Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(fields)
	if len(m.Fields) != n || len(m.D) != n {
		t.Fatalf("matrix shape")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if m.D[i][j] != m.D[j][i] {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
			if m.D[i][j] < 0 {
				t.Fatalf("negative distance at (%d,%d)", i, j)
			}
		}
	}
	// The diagonal (self-distance baseline) must be well below the
	// typical off-diagonal distance.
	self := m.SelfDistanceBaseline()
	var off, cnt float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			off += m.D[i][j]
			cnt++
		}
	}
	if self >= off/cnt {
		t.Errorf("self baseline %.2f not below mean off-diagonal %.2f", self, off/cnt)
	}
	// V (deliberately rough outlier field) must be among the most
	// distant rows on average.
	vi := m.FieldIndex("V")
	if vi < 0 {
		t.Fatal("V missing")
	}
	var vMean float64
	for j := range m.Fields {
		if j != vi {
			vMean += m.D[vi][j]
		}
	}
	vMean /= float64(n - 1)
	if vMean < off/cnt {
		t.Errorf("outlier field V mean distance %.2f below overall mean %.2f", vMean, off/cnt)
	}
}

func TestOrderSortedByDistance(t *testing.T) {
	fields := hurricaneFields(t)
	m, err := SimilarityMatrix(fields, predictors.Config{})
	if err != nil {
		t.Fatal(err)
	}
	target := m.FieldIndex("CLOUD")
	order := m.Order(target)
	if len(order) != len(fields)-1 {
		t.Fatalf("order length %d", len(order))
	}
	for i := 1; i < len(order); i++ {
		if m.D[target][order[i-1]] > m.D[target][order[i]] {
			t.Fatal("order not ascending by distance")
		}
	}
	for _, o := range order {
		if o == target {
			t.Fatal("target included in its own order")
		}
	}
}

func TestFieldIndex(t *testing.T) {
	m := &Matrix{Fields: []string{"a", "b"}}
	if m.FieldIndex("b") != 1 || m.FieldIndex("zzz") != -1 {
		t.Error("FieldIndex wrong")
	}
}

func TestCovers(t *testing.T) {
	m := &Matrix{
		Fields: []string{"a", "b", "c"},
		D: [][]float64{
			{0, 1, 9},
			{1, 0, 9},
			{9, 9, 0},
		},
	}
	cov := m.Covers(2)
	if !cov[0][0] || !cov[0][1] || cov[0][2] {
		t.Errorf("covers row 0 = %v", cov[0])
	}
}

func TestExactCoverSmall(t *testing.T) {
	// a covers {a,b}, c covers {c}: minimal cover is {a, c}.
	covers := [][]bool{
		{true, true, false},
		{false, true, false},
		{false, false, true},
	}
	got, err := MinimalCover(covers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("cover = %v", got)
	}
}

func TestCoverWithRequiredSubset(t *testing.T) {
	covers := [][]bool{
		{true, false, false},
		{false, true, false},
		{false, false, true},
	}
	got, err := MinimalCover(covers, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("cover = %v", got)
	}
}

func TestCoverInfeasible(t *testing.T) {
	covers := [][]bool{
		{true, false},
		{false, false}, // nothing covers field 1
	}
	if _, err := MinimalCover(covers, nil); err == nil {
		t.Error("infeasible instance accepted")
	}
	if _, err := GreedyCover(covers, []int{1}); err == nil {
		t.Error("greedy accepted infeasible instance")
	}
}

// TestExactCoverOptimalVsGreedy: the exact solver never returns a larger
// cover than greedy, and both outputs actually cover everything.
func TestExactCoverOptimalVsGreedy(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 2
		covers := make([][]bool, n)
		for i := range covers {
			covers[i] = make([]bool, n)
			covers[i][i] = true
			for j := range covers[i] {
				if rng.Float64() < 0.3 {
					covers[i][j] = true
				}
			}
		}
		exact, err := MinimalCover(covers, nil)
		if err != nil {
			return false // self-cover makes it always feasible
		}
		greedy, err := GreedyCover(covers, nil)
		if err != nil {
			return false
		}
		if len(exact) > len(greedy) {
			return false
		}
		valid := func(set []int) bool {
			covered := make([]bool, n)
			for _, s := range set {
				for j := 0; j < n; j++ {
					if covers[s][j] {
						covered[j] = true
					}
				}
			}
			for _, c := range covered {
				if !c {
					return false
				}
			}
			return true
		}
		return valid(exact) && valid(greedy)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEmptyCover(t *testing.T) {
	got, err := MinimalCover(nil, nil)
	if err != nil || got != nil {
		t.Errorf("empty instance = %v, %v", got, err)
	}
}

func TestSimilarFieldsAreClose(t *testing.T) {
	// Generate two datasets differing only in seed: the same field recipe
	// must be closer to itself (other seed) than to a different recipe.
	a := synthdata.Hurricane(synthdata.Options{NZ: 10, NY: 48, NX: 48, Seed: 100})
	b := synthdata.Hurricane(synthdata.Options{NZ: 10, NY: 48, NX: 48, Seed: 200})
	cfg := predictors.Config{}
	qsnowA, err := Profiles(a.Field("QSNOW"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	qsnowB, err := Profiles(b.Field("QSNOW"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	vA, err := Profiles(a.Field("V"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dSame, err := Distance(qsnowA, qsnowB)
	if err != nil {
		t.Fatal(err)
	}
	dDiff, err := Distance(qsnowA, vA)
	if err != nil {
		t.Fatal(err)
	}
	if dSame >= dDiff {
		t.Errorf("same-recipe distance %.2f not below cross-recipe %.2f", dSame, dDiff)
	}
}
