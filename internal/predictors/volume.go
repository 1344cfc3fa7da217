package predictors

import (
	"fmt"

	"github.com/crestlab/crest/internal/grid"
	"github.com/crestlab/crest/internal/parallel"
	"github.com/crestlab/crest/internal/stats"
)

// volume.go implements the paper's footnote-1 extension to native 3D
// volumes "using approaches similar to [3]": the four spatial predictors
// are evaluated per 2D slice and pooled across the volume (slices run in
// parallel), while the error-bound-specific generic distortion is
// estimated over the full 3D sample so it sees the volume's complete
// value distribution.

// VolumeFeatures are pooled predictors for a 3D volume at one bound.
type VolumeFeatures struct {
	// Mean holds the slice-mean of each predictor; the usable covariate
	// vector for volume-level estimation.
	Mean Features
	// SliceStd holds the across-slice standard deviation of the four
	// dataset features, a measure of along-z heterogeneity.
	SliceStd DatasetFeatures
}

// ComputeVolume evaluates the 3D extension for vol at bound eps.
func ComputeVolume(vol *grid.Volume, eps float64, cfg Config) (VolumeFeatures, error) {
	if vol.NZ < 1 {
		return VolumeFeatures{}, fmt.Errorf("predictors: empty volume")
	}
	slices := vol.Slices()
	perSlice := make([]DatasetFeatures, len(slices))
	errs := make([]error, len(slices))
	parallel.ForEachDynamic(len(slices), cfg.Workers, func(i int) {
		perSlice[i], errs[i] = ComputeDataset(slices[i], cfg)
	})
	for _, err := range errs {
		if err != nil {
			return VolumeFeatures{}, err
		}
	}
	var out VolumeFeatures
	collect := func(get func(DatasetFeatures) float64) (mean, std float64) {
		vals := make([]float64, len(perSlice))
		for i, df := range perSlice {
			vals[i] = get(df)
		}
		return stats.MeanStd(vals)
	}
	var sdStd, scStd, cgStd, covStd float64
	out.Mean.SD, sdStd = collect(func(d DatasetFeatures) float64 { return d.SD })
	out.Mean.SC, scStd = collect(func(d DatasetFeatures) float64 { return d.SC })
	out.Mean.CodingGain, cgStd = collect(func(d DatasetFeatures) float64 { return d.CodingGain })
	out.Mean.CovSVDTrunc, covStd = collect(func(d DatasetFeatures) float64 { return d.CovSVDTrunc })
	out.SliceStd = DatasetFeatures{SD: sdStd, SC: scStd, CodingGain: cgStd, CovSVDTrunc: covStd}

	// Pool the singular profiles (mean across slices) for similarity use.
	profile := &out.Mean.SingularProfile
	for _, df := range perSlice {
		for j, v := range df.SingularProfile {
			profile[j] += v
		}
	}
	for j := range profile {
		profile[j] /= float64(len(perSlice))
	}

	// Full-volume generic distortion.
	if eps > 0 {
		out.Mean.Distortion = distortion(stats.HistogramEntropy(vol.Data, ebBins), stats.QuantizedEntropy(vol.Data, eps))
	}
	return out, nil
}
