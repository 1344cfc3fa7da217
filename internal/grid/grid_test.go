package grid

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBufferShape(t *testing.T) {
	b := NewBuffer(3, 5)
	if b.Rows != 3 || b.Cols != 5 || len(b.Data) != 15 {
		t.Fatalf("unexpected shape %dx%d len %d", b.Rows, b.Cols, len(b.Data))
	}
	if b.Len() != 15 || b.SizeBytes() != 120 {
		t.Fatalf("Len=%d SizeBytes=%d", b.Len(), b.SizeBytes())
	}
}

func TestNewBufferPanicsOnInvalidShape(t *testing.T) {
	for _, sh := range [][2]int{{0, 1}, {1, 0}, {-1, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBuffer(%d,%d) did not panic", sh[0], sh[1])
				}
			}()
			NewBuffer(sh[0], sh[1])
		}()
	}
}

func TestFromSlice(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	b, err := FromSlice(2, 3, data)
	if err != nil {
		t.Fatal(err)
	}
	if b.At(0, 2) != 3 || b.At(1, 0) != 4 {
		t.Errorf("row-major layout broken: %v", b.Data)
	}
	if _, err := FromSlice(2, 4, data); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FromSlice(0, 3, nil); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	b := NewBuffer(4, 7)
	b.Set(2, 5, 3.25)
	if got := b.At(2, 5); got != 3.25 {
		t.Errorf("At(2,5)=%g", got)
	}
	if b.Data[2*7+5] != 3.25 {
		t.Error("Set wrote to the wrong backing index")
	}
}

func TestClone(t *testing.T) {
	b := NewBuffer(2, 2)
	b.Set(0, 0, 1)
	c := b.Clone()
	c.Set(0, 0, 9)
	if b.At(0, 0) != 1 {
		t.Error("Clone shares backing storage")
	}
	if c.Rows != b.Rows || c.Cols != b.Cols {
		t.Error("Clone lost shape")
	}
}

func TestRange(t *testing.T) {
	b := NewBuffer(2, 3)
	copy(b.Data, []float64{3, -1, 4, 1, -5, 9})
	lo, hi := b.Range()
	if lo != -5 || hi != 9 {
		t.Errorf("Range = (%g, %g)", lo, hi)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewBuffer(2, 2)
	b := NewBuffer(2, 2)
	b.Data[3] = 0.5
	if d := a.MaxAbsDiff(b); d != 0.5 {
		t.Errorf("MaxAbsDiff = %g", d)
	}
	c := NewBuffer(2, 3)
	if d := a.MaxAbsDiff(c); !math.IsInf(d, 1) {
		t.Errorf("shape mismatch diff = %g, want +Inf", d)
	}
}

func TestVolumeSlicing(t *testing.T) {
	v := NewVolume(3, 4, 5)
	v.Dataset, v.Field = "ds", "f"
	v.Set(2, 1, 3, 7.5)
	s := v.Slice(2)
	if s.At(1, 3) != 7.5 {
		t.Error("slice does not view volume data")
	}
	if s.Dataset != "ds" || s.Field != "f" || s.Step != 2 {
		t.Errorf("slice identity %q/%q step %d", s.Dataset, s.Field, s.Step)
	}
	// Slices share storage with the volume.
	s.Set(0, 0, -1)
	if v.At(2, 0, 0) != -1 {
		t.Error("slice write did not reach volume")
	}
	if got := len(v.Slices()); got != 3 {
		t.Errorf("Slices() returned %d", got)
	}
}

func TestVolumeSliceOutOfRangePanics(t *testing.T) {
	v := NewVolume(2, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("Slice(5) did not panic")
		}
	}()
	v.Slice(5)
}

func TestDatasetLookup(t *testing.T) {
	ds := &Dataset{Name: "d", Fields: []*Field{
		{Name: "a", Buffers: []*Buffer{NewBuffer(2, 2)}},
		{Name: "b", Buffers: []*Buffer{NewBuffer(2, 2), NewBuffer(2, 2)}},
	}}
	if ds.Field("a") == nil || ds.Field("b") == nil {
		t.Fatal("Field lookup failed")
	}
	if ds.Field("zzz") != nil {
		t.Error("lookup of absent field returned non-nil")
	}
	names := ds.FieldNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("FieldNames = %v", names)
	}
	if got := len(ds.Buffers()); got != 3 {
		t.Errorf("Buffers() returned %d", got)
	}
}

func TestBlockingShapes(t *testing.T) {
	b := NewBuffer(16, 24)
	tl, err := NewBlocking(b, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Br != 2 || tl.Bc != 3 || tl.NumBlocks() != 6 {
		t.Errorf("blocking %dx%d (%d blocks)", tl.Br, tl.Bc, tl.NumBlocks())
	}
	// Non-multiple dims crop.
	b2 := NewBuffer(17, 25)
	tl2, err := NewBlocking(b2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tl2.Br != 2 || tl2.Bc != 3 {
		t.Errorf("cropped blocking %dx%d", tl2.Br, tl2.Bc)
	}
}

func TestBlockingErrors(t *testing.T) {
	b := NewBuffer(4, 4)
	if _, err := NewBlocking(b, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewBlocking(b, 8); !errors.Is(err, ErrNotTileable) {
		t.Errorf("oversized k error = %v, want ErrNotTileable", err)
	}
}

func TestBlockPosAndManhattan(t *testing.T) {
	b := NewBuffer(16, 16)
	tl, err := NewBlocking(b, 8) // 2x2 blocks
	if err != nil {
		t.Fatal(err)
	}
	br, bc := tl.BlockPos(3)
	if br != 1 || bc != 1 {
		t.Errorf("BlockPos(3) = (%d,%d)", br, bc)
	}
	if d := tl.ManhattanDist(0, 3); d != 2 {
		t.Errorf("ManhattanDist(0,3) = %g", d)
	}
	if d := tl.ManhattanDist(1, 1); d != 0 {
		t.Errorf("self distance = %g", d)
	}
	if d := tl.ManhattanDist(0, 1); d != 1 {
		t.Errorf("adjacent distance = %g", d)
	}
}

func TestVecExtractsRowWise(t *testing.T) {
	b := NewBuffer(4, 4)
	for i := range b.Data {
		b.Data[i] = float64(i)
	}
	tl, err := NewBlocking(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Block 1 covers rows 0-1, cols 2-3: values 2,3,6,7.
	got := tl.Vec(1, nil)
	want := []float64{2, 3, 6, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vec(1) = %v, want %v", got, want)
		}
	}
	// Reuse destination.
	dst := make([]float64, 4)
	got2 := tl.Vec(2, dst)
	if &got2[0] != &dst[0] {
		t.Error("Vec did not reuse destination")
	}
}

func TestVecAllMatchesVec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBuffer(24, 16)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	tl, err := NewBlocking(b, 8)
	if err != nil {
		t.Fatal(err)
	}
	all := tl.VecAll()
	for i := 0; i < tl.NumBlocks(); i++ {
		single := tl.Vec(i, nil)
		for j := range single {
			if all[i][j] != single[j] {
				t.Fatalf("VecAll block %d differs at %d", i, j)
			}
		}
	}
}

// TestBlockingPartition checks by property that every grid cell inside the
// cropped region appears in exactly one block vector.
func TestBlockingPartition(t *testing.T) {
	prop := func(rowsRaw, colsRaw, kRaw uint8) bool {
		rows := int(rowsRaw%40) + 8
		cols := int(colsRaw%40) + 8
		k := int(kRaw%8) + 1
		b := NewBuffer(rows, cols)
		for i := range b.Data {
			b.Data[i] = float64(i)
		}
		tl, err := NewBlocking(b, k)
		if err != nil {
			return false
		}
		seen := map[float64]int{}
		for i := 0; i < tl.NumBlocks(); i++ {
			for _, v := range tl.Vec(i, nil) {
				seen[v]++
			}
		}
		if len(seen) != tl.NumBlocks()*k*k {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
