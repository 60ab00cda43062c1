package core

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/ml"
	"repro/internal/stats"
)

// DiscoverTransformers are the ten code-transformer classes of the RQ7
// experiment (Figure 14), in the paper's order.
func DiscoverTransformers() []string {
	return []string{"O0", "mem2reg", "O3", "bcf", "fla", "sub", "drlsg", "mcmc", "rs", "ga"}
}

// DiscoverConfig configures the obfuscator-detection experiment.
type DiscoverConfig struct {
	// Dataset selects the construction 1..4 (see the paper's Section 4.7):
	//  1: the same solutions of ONE problem given to every transformer
	//  2: the same solutions of many problems given to every transformer
	//  3: each transformer gets solutions of its OWN problem (the spurious
	//     high-accuracy setup the paper warns about)
	//  4: each transformer gets different solutions of many problems
	Dataset int
	// PerTransformer is the number of programs per transformer class (the
	// paper uses 500, split 400/100).
	PerTransformer int
	// Model is the vector model used (the paper's histogram classifier).
	Model string
	Seed  int64
}

// DiscoverResult is the outcome of one obfuscator-detection run.
type DiscoverResult struct {
	Accuracy  float64
	F1        float64
	RandomHit float64 // expected accuracy of a random guesser (0.1)
}

// Discover runs the RQ7 experiment: can a classifier identify WHICH
// transformer produced a program? Programs are labelled by transformer, not
// by algorithm.
func Discover(cfg DiscoverConfig) (*DiscoverResult, error) {
	if cfg.PerTransformer < 5 {
		return nil, fmt.Errorf("core: need at least 5 programs per transformer")
	}
	if cfg.Model == "" {
		cfg.Model = "rf"
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	transformers := DiscoverTransformers()

	// Build the base program pools according to the dataset construction.
	pools, err := discoverPools(cfg, rng, len(transformers))
	if err != nil {
		return nil, err
	}

	type labelled struct {
		vec   embed.Vector
		label int
	}
	var all []labelled
	for t, name := range transformers {
		for _, src := range pools[t] {
			m, err := Transform(src, name, rand.New(rand.NewSource(rng.Int63())))
			if err != nil {
				return nil, fmt.Errorf("core: discover %s: %w", name, err)
			}
			all = append(all, labelled{vec: embed.HistogramFlat(ir.Flatten(m)), label: t})
		}
	}
	// Stratified 80/20 split, like the paper's 400/100.
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	byClass := make(map[int][]labelled)
	for _, s := range all {
		byClass[s.label] = append(byClass[s.label], s)
	}
	var trX [][]float64
	var trY []int
	var teX [][]float64
	var teY []int
	for c := 0; c < len(transformers); c++ {
		group := byClass[c]
		cut := len(group) * 4 / 5
		for i, s := range group {
			if i < cut {
				trX = append(trX, s.vec)
				trY = append(trY, s.label)
			} else {
				teX = append(teX, s.vec)
				teY = append(teY, s.label)
			}
		}
	}
	model, err := ml.New(cfg.Model, rand.New(rand.NewSource(rng.Int63())))
	if err != nil {
		return nil, err
	}
	if err := model.Fit(trX, trY, len(transformers)); err != nil {
		return nil, err
	}
	pred := make([]int, len(teX))
	for i, x := range teX {
		pred[i] = model.Predict(x)
	}
	acc, err := stats.Accuracy(pred, teY)
	if err != nil {
		return nil, fmt.Errorf("core: scoring discover dataset %d: %w", cfg.Dataset, err)
	}
	return &DiscoverResult{
		Accuracy:  acc,
		F1:        stats.MacroF1(pred, teY, len(transformers)),
		RandomHit: 1.0 / float64(len(transformers)),
	}, nil
}

// discoverPools builds the per-transformer base program pools.
func discoverPools(cfg DiscoverConfig, rng *rand.Rand, nTransformers int) ([][]string, error) {
	probs := dataset.Problems()
	pools := make([][]string, nTransformers)
	solutionsOf := func(pIdx, n int) ([]string, error) {
		out := make([]string, 0, n)
		for k := 0; k < n; k++ {
			src, err := sampleProblem(probs[pIdx], rng)
			if err != nil {
				return nil, err
			}
			out = append(out, src)
		}
		return out, nil
	}

	switch cfg.Dataset {
	case 1:
		// One random problem; the SAME solutions for every transformer.
		p := rng.Intn(len(probs))
		base, err := solutionsOf(p, cfg.PerTransformer)
		if err != nil {
			return nil, err
		}
		for t := range pools {
			pools[t] = base
		}
	case 2:
		// Same solutions drawn across many problems for every transformer.
		var base []string
		for len(base) < cfg.PerTransformer {
			p := rng.Intn(len(probs))
			ss, err := solutionsOf(p, 1)
			if err != nil {
				return nil, err
			}
			base = append(base, ss...)
		}
		for t := range pools {
			pools[t] = base
		}
	case 3:
		// Each transformer gets its own problem: the spurious setup.
		perm := rng.Perm(len(probs))
		for t := range pools {
			ss, err := solutionsOf(perm[t], cfg.PerTransformer)
			if err != nil {
				return nil, err
			}
			pools[t] = ss
		}
	case 4:
		// Each transformer gets different solutions of many problems.
		for t := range pools {
			var ss []string
			for len(ss) < cfg.PerTransformer {
				p := rng.Intn(len(probs))
				one, err := solutionsOf(p, 1)
				if err != nil {
					return nil, err
				}
				ss = append(ss, one...)
			}
			pools[t] = ss
		}
	default:
		return nil, fmt.Errorf("core: discover dataset must be 1..4, got %d", cfg.Dataset)
	}
	return pools, nil
}

// sampleProblem draws one compile-checked solution of p.
func sampleProblem(p dataset.Problem, rng *rand.Rand) (string, error) {
	set, err := dataset.GenerateFor(p, 1, rng.Int63())
	if err != nil {
		return "", err
	}
	return set[0], nil
}
