package core

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/progcache"
	"repro/internal/stats"
)

// DistanceResult is one row of the Figure-10 analysis: how far a
// transformation moves programs in 63-dimensional histogram space.
type DistanceResult struct {
	Transform string
	Summary   stats.Summary
}

// DistanceAnalysis measures, for each transformation, the Euclidean
// distance between the opcode histograms of original and transformed
// programs over the given sample set — the paper's explanation for which
// evaders deceive which classifiers (Figure 10).
func DistanceAnalysis(samples []dataset.Sample, transforms []string, seed int64) ([]DistanceResult, error) {
	rng := rand.New(rand.NewSource(seed))
	results := make([]DistanceResult, 0, len(transforms))
	for _, tr := range transforms {
		dists := make([]float64, 0, len(samples))
		for _, s := range samples {
			// The baseline histogram only reads opcodes; share the cached
			// flat view so the compile and flatten happen once across all
			// transforms and the scan streams the dense opcode column.
			orig, err := progcache.CompileFlat(s.Source, "orig")
			if err != nil {
				return nil, err
			}
			h0 := embed.HistogramFlat(orig)
			m, err := Transform(s.Source, tr, rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				return nil, err
			}
			dists = append(dists, embed.Distance(h0, embed.HistogramFlat(ir.Flatten(m))))
		}
		results = append(results, DistanceResult{Transform: tr, Summary: stats.Summarize(dists)})
	}
	return results, nil
}
