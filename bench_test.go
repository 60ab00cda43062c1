// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation at laptop scale. Each BenchmarkFigNN corresponds to
// one figure; accuracies (or factors) are reported as custom benchmark
// metrics so `go test -bench=. -benchmem` prints the same quantities the
// paper plots. The absolute numbers come from a reduced dataset — the
// paper's full POJ-104 scale is available through cmd/arena — but the
// qualitative shape (who wins, by roughly what factor) matches; see
// EXPERIMENTS.md for the side-by-side.
package repro

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/ml"
	"repro/internal/obfus"
	"repro/internal/passes"
	"repro/internal/progcache"
)

// histogram embeds a transformed module the way the harness does: the
// opcode histogram over its flat view.
func histogram(m *ir.Module) embed.Vector { return embed.HistogramFlat(ir.Flatten(m)) }

// benchSet caches the shared reduced dataset across benchmarks.
var benchSetCache = map[[2]int]*dataset.Set{}

func benchSet(b *testing.B, classes, perClass int) *dataset.Set {
	b.Helper()
	key := [2]int{classes, perClass}
	if s, ok := benchSetCache[key]; ok {
		return s
	}
	s, err := dataset.Generate(classes, perClass, 12345)
	if err != nil {
		b.Fatal(err)
	}
	benchSetCache[key] = s
	return s
}

func runGameBench(b *testing.B, set *dataset.Set, cfg core.GameConfig) float64 {
	b.Helper()
	acc := 0.0
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := core.RunGame(set, cfg)
		if err != nil {
			b.Fatal(err)
		}
		acc += res.Accuracy
	}
	return acc / float64(b.N)
}

// BenchmarkFig05EmbeddingsGame0 compares the nine embeddings in Game 0
// (paper: 32 classes, dgcnn/cnn; here a reduced 8x12 with the same models).
func BenchmarkFig05EmbeddingsGame0(b *testing.B) {
	set := benchSet(b, 8, 12)
	for _, emb := range embed.Names() {
		model := "dgcnn"
		if e, _ := embed.Get(emb); e.Kind == embed.VectorKind {
			model = "cnn"
		}
		b.Run(emb, func(b *testing.B) {
			acc := runGameBench(b, set, core.GameConfig{
				Game:     0,
				Pipeline: core.Pipeline{Embedding: emb, Model: model},
			})
			b.ReportMetric(acc, "accuracy")
		})
	}
}

// BenchmarkFig06EmbeddingsGames123 evaluates the embeddings under evasion
// (ollvm) in the three adversarial games. To keep the run affordable it
// uses the histogram-vs-compact-graph contrast the paper highlights.
func BenchmarkFig06EmbeddingsGames123(b *testing.B) {
	set := benchSet(b, 6, 10)
	for _, game := range []int{1, 2, 3} {
		for _, emb := range []string{"histogram", "cfg_compact"} {
			model := "cnn"
			if emb == "cfg_compact" {
				model = "dgcnn"
			}
			b.Run(benchName("game", game, emb), func(b *testing.B) {
				acc := runGameBench(b, set, core.GameConfig{
					Game:   game,
					Evader: "ollvm",
					Pipeline: core.Pipeline{
						Embedding: emb, Model: model, Normalizer: passes.O3,
					},
				})
				b.ReportMetric(acc, "accuracy")
			})
		}
	}
}

func benchName(prefix string, game int, rest string) string {
	return prefix + string(rune('0'+game)) + "/" + rest
}

// BenchmarkFig07ModelsGame0 compares the six models on the histogram
// embedding and reports their accuracy and memory (paper: Figure 7).
func BenchmarkFig07ModelsGame0(b *testing.B) {
	set := benchSet(b, 10, 16)
	for _, model := range ml.VectorNames() {
		b.Run(model, func(b *testing.B) {
			var mem int64
			acc := 0.0
			for i := 0; i < b.N; i++ {
				res, err := core.RunGame(set, core.GameConfig{
					Game:     0,
					Pipeline: core.Pipeline{Embedding: "histogram", Model: model},
					Seed:     int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				acc += res.Accuracy
				mem = res.ModelMemory
			}
			b.ReportMetric(acc/float64(b.N), "accuracy")
			b.ReportMetric(float64(mem), "model-bytes")
		})
	}
}

// BenchmarkFig08Game1 measures evasion against an unaware classifier for
// each evader (paper: Figure 8).
func BenchmarkFig08Game1(b *testing.B) {
	set := benchSet(b, 8, 12)
	for _, evader := range []string{"none", "O3", "bcf", "fla", "sub", "ollvm", "rs", "mcmc", "drlsg"} {
		b.Run(evader, func(b *testing.B) {
			acc := runGameBench(b, set, core.GameConfig{
				Game:     1,
				Evader:   evader,
				Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"},
			})
			b.ReportMetric(acc, "accuracy")
		})
	}
}

// BenchmarkFig09Game2 repeats Figure 8 with an obfuscation-aware classifier
// (paper: Figure 9 — accuracies return to Game-0 levels).
func BenchmarkFig09Game2(b *testing.B) {
	set := benchSet(b, 8, 12)
	for _, evader := range []string{"O3", "bcf", "fla", "sub", "ollvm", "rs"} {
		b.Run(evader, func(b *testing.B) {
			acc := runGameBench(b, set, core.GameConfig{
				Game:     2,
				Evader:   evader,
				Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"},
			})
			b.ReportMetric(acc, "accuracy")
		})
	}
}

// BenchmarkFig10Distance reports the mean histogram distance each evader
// induces (paper: Figure 10).
func BenchmarkFig10Distance(b *testing.B) {
	set := benchSet(b, 6, 4)
	for _, tr := range []string{"O3", "bcf", "fla", "sub", "ollvm", "rs", "mcmc", "drlsg"} {
		b.Run(tr, func(b *testing.B) {
			mean := 0.0
			for i := 0; i < b.N; i++ {
				res, err := core.DistanceAnalysis(set.Samples, []string{tr}, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				mean += res[0].Summary.Mean
			}
			b.ReportMetric(mean/float64(b.N), "histogram-dist")
		})
	}
}

// BenchmarkFig11Game3 measures the -O3 normalizer against each evader
// (paper: Figure 11 — source evaders collapse, bcf/fla resist).
func BenchmarkFig11Game3(b *testing.B) {
	set := benchSet(b, 8, 12)
	for _, evader := range []string{"O3", "bcf", "fla", "sub", "ollvm", "rs", "mcmc", "drlsg"} {
		b.Run(evader, func(b *testing.B) {
			acc := runGameBench(b, set, core.GameConfig{
				Game:   3,
				Evader: evader,
				Pipeline: core.Pipeline{
					Embedding: "histogram", Model: "rf", Normalizer: passes.O3,
				},
			})
			b.ReportMetric(acc, "accuracy")
		})
	}
}

// BenchmarkFig12ClassSweep evaluates accuracy as the class count grows
// (paper: Figure 12, 4..64 classes).
func BenchmarkFig12ClassSweep(b *testing.B) {
	for _, classes := range []int{4, 8, 16, 32} {
		set := benchSet(b, classes, 10)
		b.Run(benchName("classes", 0, itoa(classes)), func(b *testing.B) {
			acc := runGameBench(b, set, core.GameConfig{
				Game:     0,
				Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"},
			})
			b.ReportMetric(acc, "accuracy")
			b.ReportMetric(1/float64(classes), "random-baseline")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkFig13Speedup reruns the performance experiment: dynamic
// instruction counts at O0/O3/ollvm over the sixteen kernels (paper:
// Figure 13, geomeans 2.32x faster / 8.33x slower).
func BenchmarkFig13Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := core.Speedup(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.GeoO3Speedup, "O3-speedup")
		b.ReportMetric(rep.GeoOllvmSlowdown, "ollvm-slowdown")
	}
}

// BenchmarkFig14Discover reruns the obfuscator-identification experiment on
// the four dataset constructions (paper: Figure 14 — ~25% everywhere except
// the spurious dataset3).
func BenchmarkFig14Discover(b *testing.B) {
	for d := 1; d <= 4; d++ {
		b.Run(benchName("dataset", d, ""), func(b *testing.B) {
			acc := 0.0
			for i := 0; i < b.N; i++ {
				res, err := core.Discover(core.DiscoverConfig{
					Dataset: d, PerTransformer: 15, Model: "rf", Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				acc += res.Accuracy
			}
			b.ReportMetric(acc/float64(b.N), "accuracy")
		})
	}
}

// BenchmarkFig15Malware reruns the family-identification study (paper:
// Figure 15 — accuracy climbs to ~1.0 with the full suite).
func BenchmarkFig15Malware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.MalwareStudy(core.MalwareConfig{
			TrainPos: 10, Challenge: 5, Models: []string{"rf"}, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		accs := res.Acc["rf"]
		b.ReportMetric(accs[0], "accuracy-t1")
		b.ReportMetric(accs[len(accs)-1], "accuracy-t7")
	}
}

// BenchmarkFig16Antivirus reruns the signature-scanner comparison (paper:
// Figure 16 — the specialised rf dominates the generic engine).
func BenchmarkFig16Antivirus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.AntivirusComparison(core.MalwareConfig{
			TrainPos: 10, Challenge: 5, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		av, rf := 0.0, 0.0
		for _, r := range rows {
			av += r.AVDetect
			rf += r.RFDetect
		}
		b.ReportMetric(av/float64(len(rows)), "scanner-accuracy")
		b.ReportMetric(rf/float64(len(rows)), "rf-accuracy")
	}
}

// --- ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationFoldableBCF quantifies how much of bcf's resistance to
// -O3 normalization comes from predicate opacity: with foldable predicates
// the detours vanish under optimization.
func BenchmarkAblationFoldableBCF(b *testing.B) {
	src := `int main() {
		int s = 0;
		for (int i = 0; i < 50; i++) { if (i % 2) s += i; else s ^= i; }
		return s;
	}`
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		opaque, _ := minic.CompileSource(src, "a")
		foldable, _ := minic.CompileSource(src, "b")
		for _, f := range opaque.Functions {
			obfus.BogusControlFlow(f, rng, 0.9)
		}
		for _, f := range foldable.Functions {
			obfus.BogusControlFlowFoldable(f, rand.New(rand.NewSource(int64(i+1))), 0.9)
		}
		if err := passes.Optimize(opaque, passes.O3); err != nil {
			b.Fatal(err)
		}
		if err := passes.Optimize(foldable, passes.O3); err != nil {
			b.Fatal(err)
		}
		base, _ := minic.CompileSource(src, "c")
		if err := passes.Optimize(base, passes.O3); err != nil {
			b.Fatal(err)
		}
		h := histogram
		b.ReportMetric(embed.Distance(h(base), h(opaque)), "opaque-residual-dist")
		b.ReportMetric(embed.Distance(h(base), h(foldable)), "foldable-residual-dist")
	}
}

// BenchmarkAblationFlaPostO3 probes the fla × optimization interaction the
// paper flags as an "interesting accident" (in their stack, optimizing
// flattened code *increased* its evasion power). The bench reports fla's
// histogram distance before and after -O3 normalization; in this
// reproduction the optimizer claws back roughly half the distance — the
// dispatcher's memory traffic is promoted while the switch skeleton
// survives — so here normalization mildly helps against fla (see
// EXPERIMENTS.md, Figure 11 deviations).
func BenchmarkAblationFlaPostO3(b *testing.B) {
	src := `int main() {
		int s = 0;
		for (int i = 0; i < 40; i++) { if (i % 3) s += i; else s ^= i; }
		return s;
	}`
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		h := histogram

		base, _ := minic.CompileSource(src, "base")
		fla, _ := minic.CompileSource(src, "fla")
		if err := obfus.Apply(fla, "fla", rng); err != nil {
			b.Fatal(err)
		}
		preDist := embed.Distance(h(base), h(fla))

		baseO3, _ := minic.CompileSource(src, "b3")
		flaO3, _ := minic.CompileSource(src, "f3")
		if err := obfus.Apply(flaO3, "fla", rand.New(rand.NewSource(int64(i+1)))); err != nil {
			b.Fatal(err)
		}
		if err := passes.Optimize(baseO3, passes.O3); err != nil {
			b.Fatal(err)
		}
		if err := passes.Optimize(flaO3, passes.O3); err != nil {
			b.Fatal(err)
		}
		postDist := embed.Distance(h(baseO3), h(flaO3))
		b.ReportMetric(preDist, "fla-dist-at-O0")
		b.ReportMetric(postDist, "fla-dist-after-O3")
	}
}

// BenchmarkAblationHistogramBuckets compares the 63-opcode histogram with a
// collapsed 8-category variant: how much dimensionality does classification
// need?
func BenchmarkAblationHistogramBuckets(b *testing.B) {
	set := benchSet(b, 8, 12)
	// The collapsed variant is computed by bucketing the full histogram.
	collapse := func(v embed.Vector) []float64 {
		out := make([]float64, 8)
		for op, c := range v {
			out[op%8] += c
		}
		return out
	}
	featurize := func(samples []dataset.Sample, full bool) ([][]float64, []int) {
		X := make([][]float64, len(samples))
		y := make([]int, len(samples))
		for i, s := range samples {
			m, err := minic.CompileSource(s.Source, "x")
			if err != nil {
				b.Fatal(err)
			}
			h := histogram(m)
			if full {
				X[i] = h
			} else {
				X[i] = collapse(h)
			}
			y[i] = s.Class
		}
		return X, y
	}
	for _, full := range []bool{true, false} {
		name := "full63"
		if !full {
			name = "buckets8"
		}
		b.Run(name, func(b *testing.B) {
			acc := 0.0
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i + 1)))
				train, test := set.Split(0.75, rng)
				Xtr, ytr := featurize(train, full)
				Xte, yte := featurize(test, full)
				model := ml.NewRandomForest(40, 0, rng)
				if err := model.Fit(Xtr, ytr, set.NumClasses); err != nil {
					b.Fatal(err)
				}
				hits := 0
				for j, x := range Xte {
					if model.Predict(x) == yte[j] {
						hits++
					}
				}
				acc += float64(hits) / float64(len(Xte))
			}
			b.ReportMetric(acc/float64(b.N), "accuracy")
		})
	}
}

// BenchmarkAblationForestSize sweeps the random-forest ensemble size.
func BenchmarkAblationForestSize(b *testing.B) {
	set := benchSet(b, 8, 12)
	for _, trees := range []int{5, 20, 60} {
		b.Run(itoa(trees)+"trees", func(b *testing.B) {
			acc := 0.0
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i + 1)))
				train, test := set.Split(0.75, rng)
				var Xtr [][]float64
				var ytr []int
				for _, s := range train {
					m, _ := minic.CompileSource(s.Source, "x")
					Xtr = append(Xtr, histogram(m))
					ytr = append(ytr, s.Class)
				}
				model := ml.NewRandomForest(trees, 0, rng)
				if err := model.Fit(Xtr, ytr, set.NumClasses); err != nil {
					b.Fatal(err)
				}
				hits := 0
				for _, s := range test {
					m, _ := minic.CompileSource(s.Source, "x")
					if model.Predict(histogram(m)) == s.Class {
						hits++
					}
				}
				acc += float64(hits) / float64(len(test))
			}
			b.ReportMetric(acc/float64(b.N), "accuracy")
		})
	}
}

// BenchmarkHarnessRounds measures the experiment harness itself on a
// repeated-rounds workload (the shape of every figure: N rounds over one
// dataset). "serial-nocache" is the historical configuration — rounds
// played one after another, every sample recompiled from MiniC source each
// round. "parallel-cached" is the current default: the progcache compiles
// each distinct source once and hands out clones, and RunRoundsN plays the
// rounds on a worker pool. Same seeds, bit-identical accuracies; the
// ns/op ratio between the two sub-benchmarks is the harness speedup —
// ≥ 3x from compile caching alone on a single core, more with cores since
// the rounds (including the serial model fits) then overlap.
func BenchmarkHarnessRounds(b *testing.B) {
	set := benchSet(b, 6, 10)
	cfg := core.GameConfig{
		Game:     0,
		Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"},
	}
	const rounds = 6
	run := func(b *testing.B, workers int, cached bool) {
		progcache.SetEnabled(cached)
		defer progcache.SetEnabled(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Seed = int64(i + 1)
			if _, _, err := core.RunRoundsN(set, c, rounds, workers); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial-nocache", func(b *testing.B) { run(b, 1, false) })
	b.Run("parallel-cached", func(b *testing.B) { run(b, 0, true) })
}

// BenchmarkCompile measures raw front-end throughput (not a paper figure;
// infrastructure health).
func BenchmarkCompile(b *testing.B) {
	set := benchSet(b, 4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := set.Samples[i%len(set.Samples)]
		if _, err := minic.CompileSource(s.Source, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeO3 measures optimizer throughput.
func BenchmarkOptimizeO3(b *testing.B) {
	set := benchSet(b, 4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := set.Samples[i%len(set.Samples)]
		m, err := minic.CompileSource(s.Source, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := passes.Optimize(m, passes.O3); err != nil {
			b.Fatal(err)
		}
	}
}
