package predictors

import (
	"fmt"
	"math"
	"os"
	"testing"

	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/synthdata"
)

// golden_test.go pins the exact float64 bits of all five features, and
// of the singular-value decay profile, on fixed inputs. It is
// independent of every other differential suite: the stream≡in-memory
// tests compare two entry points that share one front half, so a change
// to that shared code would move both sides together and pass. These
// constants cannot move with it.
//
// Regenerate (only for an intended numeric change) with
//
//	CREST_PRINT_GOLDEN=1 go test ./internal/predictors -run TestFeatureGoldenBits -v

type goldenCase struct {
	name string
	buf  func() *grid.Buffer
	// bits are SD, SC, CodingGain, CovSVDTrunc and Distortion at goldenEps.
	bits [NumFeatures]uint64
	// profile holds the bits of the SingularProfile entries.
	profile [ProfileDim]uint64
	// long cases are skipped in -short mode (seconds under -race).
	long bool
}

const goldenEps = 1e-3

func hurricaneSlice(field string, edge int) *grid.Buffer {
	for _, s := range synthdata.HurricaneSpecs() {
		if s.Name == field {
			return synthdata.Volume("hurricane", s, 1, edge, edge, 2023).Slice(0)
		}
	}
	panic("unknown hurricane field " + field)
}

var goldenCases = []goldenCase{
	{
		name: "mixed-96x96",
		buf:  func() *grid.Buffer { return mixedMagnitudeBuffer(96, 96, 96) },
		bits: [NumFeatures]uint64{0x405378a9f08f0d52, 0x3fb310dff0d58902, 0x3fd66e8b0945e0d8, 0x40570c0000000000, 0xc03775785017a9d8},
		profile: [ProfileDim]uint64{0x3facf9af8e880cfe, 0x3fa95e0ffc845790, 0x3fa7109c871630e1, 0x3fa4cc2e36a6dbb2,
			0x3fa3ee2921330b1f, 0x3fa2fd79fdf874a0, 0x3fa269b379dfc486, 0x3fa114d5a40728ba},
	},
	{
		name: "mixed-90x101-cropped",
		buf:  func() *grid.Buffer { return mixedMagnitudeBuffer(90, 101, 90101) },
		bits: [NumFeatures]uint64{0x4053154a48ecd751, 0x3fb232f0ffddbfeb, 0x3fdcea6d29a4ff7b, 0x4056a80000000000, 0xc0376edbdee60516},
		profile: [ProfileDim]uint64{0x3fabc874fd650d80, 0x3faa3891df294e1d, 0x3fa80146feef4a3e, 0x3fa71f348b639060,
			0x3fa5058a616fe419, 0x3fa4b357751859c3, 0x3fa24eb73d38c245, 0x3fa1ad786b263902},
	},
	// The hurricane slice comes from synthdata, whose platform math
	// gives different input bits on 386 (the buffer's sha256 starts
	// ee88e0260f068405 on amd64 and 44952e38f777fa31 on 386), so this
	// case's SD, SC and CodingGain differ there; it passes on amd64 with
	// the AVX2 kernels switched off. The 386 CI step runs -short, which
	// skips it.
	{
		name: "hurricane-TC-512x512",
		buf:  func() *grid.Buffer { return hurricaneSlice("TC", 512) },
		bits: [NumFeatures]uint64{0x400a35d9913e2be1, 0x3fe9334669deb163, 0x402ff60be3b45359, 0x3ff9000000000000, 0xc03094ed2cf5f1d0},
		profile: [ProfileDim]uint64{0x3feff8140af1235f, 0x3f4b7f513bbdf8af, 0x3f1f1a82a8740aa8, 0x3e9310bc8941c864,
			0x3e8fb8312fd9857b, 0x3e8b03a1bc1452e8, 0x3e88084d30be5e0b, 0x3e87b21da2cf6680},
		long: true,
	},
}

func TestFeatureGoldenBits(t *testing.T) {
	record := os.Getenv("CREST_PRINT_GOLDEN") != ""
	for _, gc := range goldenCases {
		if gc.long && testing.Short() {
			continue
		}
		buf := gc.buf()
		for _, workers := range []int{1, 2} {
			f, err := Compute(buf, goldenEps, Config{K: 8, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", gc.name, workers, err)
			}
			got := f.Vector()
			if record {
				fmt.Printf("%s workers=%d: {", gc.name, workers)
				for _, v := range got {
					fmt.Printf("0x%016x, ", math.Float64bits(v))
				}
				fmt.Print("}\n  profile: {")
				for i := range gc.profile {
					fmt.Printf("0x%016x, ", math.Float64bits(f.SingularProfile[i]))
				}
				fmt.Println("}")
				continue
			}
			for i, v := range got {
				if math.Float64bits(v) != gc.bits[i] {
					t.Errorf("%s workers=%d %s: %x (%.17g), want %x (%.17g)",
						gc.name, workers, FeatureNames[i], math.Float64bits(v), v,
						gc.bits[i], math.Float64frombits(gc.bits[i]))
				}
			}
			for i, want := range gc.profile {
				if v := f.SingularProfile[i]; math.Float64bits(v) != want {
					t.Errorf("%s workers=%d SingularProfile[%d]: %x (%.17g), want %x (%.17g)",
						gc.name, workers, i, math.Float64bits(v), v, want, math.Float64frombits(want))
				}
			}
		}
	}
}
