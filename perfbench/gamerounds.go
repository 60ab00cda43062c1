package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/difftest"
	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/ml"
	"repro/internal/obfus"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/progcache"
	"repro/internal/srcobf"
	"repro/internal/stats"
)

// game-rounds: 8 classes x 16 programs, 2 rounds per cell.
const (
	grClasses  = 8
	grPer      = 16
	grRounds   = 2
	grTrain    = 0.75 // RunGame's default split
	grDiffEach = 2    // transformed modules checked against the oracle per cell and round
)

type grCell struct {
	name string
	cfg  core.GameConfig
}

// gameCells is the fixed matrix: a transform-heavy half (Game 1 with
// ollvm, O3 and rs, Game 3 with bcf under the O3 normaliser, all on
// histogram+rf) and a fit-heavy half (Game 0 with cnn on the histogram and
// dgcnn on cfg_compact).
func gameCells(seed int64) []grCell {
	hist := func(model string) core.Pipeline { return core.Pipeline{Embedding: "histogram", Model: model} }
	cells := []grCell{
		{"g1-ollvm-rf", core.GameConfig{Game: 1, Evader: "ollvm", Pipeline: hist("rf")}},
		{"g1-O3-rf", core.GameConfig{Game: 1, Evader: "O3", Pipeline: hist("rf")}},
		{"g1-rs-rf", core.GameConfig{Game: 1, Evader: "rs", Pipeline: hist("rf")}},
		{"g3-bcf-O3-rf", core.GameConfig{Game: 3, Evader: "bcf",
			Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf", Normalizer: passes.O3}}},
		{"g0-hist-cnn", core.GameConfig{Game: 0, Pipeline: hist("cnn")}},
		{"g0-cfgc-dgcnn", core.GameConfig{Game: 0, Pipeline: core.Pipeline{Embedding: "cfg_compact", Model: "dgcnn"}}},
	}
	for i := range cells {
		cells[i].cfg.Seed = seed*1_000_003 + int64(i)*104_729
	}
	return cells
}

// grDataset draws grPer programs for each of grClasses problems spread
// evenly over the problem registry. The problems are the same for every
// seed, so each seed covers the same kinds of program; the seed draws the
// programs. (dataset.Generate's random choice of problems moves a pass's
// cost by a fifth from seed to seed.)
func grDataset(seed int64) (*dataset.Set, error) {
	all := dataset.Problems()
	set := &dataset.Set{NumClasses: grClasses}
	for c := 0; c < grClasses; c++ {
		p := all[c*len(all)/grClasses]
		srcs, err := dataset.GenerateFor(p, grPer, seed*131+int64(c))
		if err != nil {
			return nil, err
		}
		for _, src := range srcs {
			set.Samples = append(set.Samples, dataset.Sample{Class: c, Source: src})
		}
	}
	return set, nil
}

// grSetup generates the dataset and warms the pinned progcache with every
// sample's compile and flat view, from an empty cache.
func grSetup(seed int64) (*dataset.Set, time.Duration, error) {
	progcache.Reset()
	start := time.Now()
	set, err := grDataset(seed)
	if err != nil {
		return nil, 0, err
	}
	for _, s := range set.Samples {
		if _, err := progcache.CompileFlat(s.Source, "prog"); err != nil {
			return nil, 0, err
		}
	}
	return set, time.Since(start), nil
}

// grPass runs every cell once and returns per-cell round results and
// wall times.
func grPass(set *dataset.Set, cells []grCell, workers int) ([][]core.GameResult, []time.Duration, error) {
	out := make([][]core.GameResult, len(cells))
	times := make([]time.Duration, len(cells))
	for i, c := range cells {
		start := time.Now()
		res, _, err := core.RunRoundsN(set, c.cfg, grRounds, workers)
		if err != nil {
			return nil, nil, fmt.Errorf("cell %s: %w", c.name, err)
		}
		out[i], times[i] = res, time.Since(start)
	}
	return out, times, nil
}

// sameAccuracies reports the first cell/round whose accuracy differs.
func sameAccuracies(cells []grCell, a, b [][]core.GameResult) string {
	for i := range cells {
		for r := range a[i] {
			if a[i][r].Accuracy != b[i][r].Accuracy {
				return fmt.Sprintf("%s round %d: %v vs %v", cells[i].name, r, a[i][r].Accuracy, b[i][r].Accuracy)
			}
		}
	}
	return ""
}

func runGameRounds(ctx *runCtx) (*report, error) {
	if ctx.trace {
		return traceGameRounds(ctx)
	}
	rep := newReport()
	var set *dataset.Set
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		s, d, err := grSetup(ctx.seed)
		if err != nil {
			return nil, err
		}
		set, setups = s, append(setups, d)
	}
	cells := gameCells(ctx.seed)

	var passes []time.Duration
	cellTimes := make([][]float64, len(cells))
	var first [][]core.GameResult
	a0, rss := totalAlloc(), sampleRSS()
	start := time.Now()
	for len(passes) < 2 || time.Since(start) < ctx.seconds {
		t := time.Now()
		res, times, err := grPass(set, cells, ctx.workers)
		rep.attempted += len(cells) * grRounds
		if err != nil {
			rep.failed += len(cells) * grRounds
			rep.fail("pass %d: %v", len(passes), err)
			break
		}
		passes = append(passes, time.Since(t))
		for i, d := range times {
			cellTimes[i] = append(cellTimes[i], float64(d)/1e6)
		}
		if first == nil {
			first = res
		} else if d := sameAccuracies(cells, first, res); d != "" {
			rep.fail("accuracy changed between repeats: %s", d)
		}
	}
	rssMed := rss.medianMB()
	if len(passes) == 0 {
		return rep, nil
	}
	alloc := float64(totalAlloc() - a0)
	rounds := float64(len(cells) * grRounds)

	// Output checks, untimed: 1 worker must reproduce nproc workers, and a
	// seeded sample of each cell's transformed modules must behave like
	// the untransformed source.
	serial, _, err := grPass(set, cells, 1)
	if err != nil {
		rep.fail("serial pass: %v", err)
	} else if d := sameAccuracies(cells, first, serial); d != "" {
		rep.fail("accuracy differs between 1 and %d workers: %s", ctx.workers, d)
	}
	checked := grDiffCheck(rep, set, cells, ctx.seed)

	ms := msOf(passes)
	q, tail := tailPercentile(ms)
	rep.metrics["setup_s"] = median(secondsOf(setups))
	rep.metrics["latency_ms_p50"] = median(ms)
	rep.metrics["ops_per_s"] = rounds / (median(ms) / 1000)
	rep.metrics["alloc_mb"] = alloc / (rounds * float64(len(passes))) / (1 << 20)
	rep.metrics["rss_mb"] = rssMed
	rep.note("# game-rounds: %d cells x %d rounds over %dx%d programs; %d passes; pass p50 %.1f ms, %s %.1f ms",
		len(cells), grRounds, grClasses, grPer, len(passes), median(ms), percentileLabel(q), tail)
	rep.note("# workload-metric rounds_per_s %.4f 1/s", rep.metrics["ops_per_s"])
	rep.note("# workload-metric fail_ratio %.4f ratio", ratio(float64(rep.failed), float64(rep.attempted)))
	rep.note("# checks: accuracies identical over %d repeats and 1 vs %d workers; %d transformed modules compared with the oracle",
		len(passes), ctx.workers, checked)
	for i, c := range cells {
		accs := make([]string, len(first[i]))
		for r, g := range first[i] {
			accs[r] = fmt.Sprintf("%.4f", g.Accuracy)
		}
		rep.note("#   cell %-14s p50 %7.1f ms, accuracies %s", c.name, median(cellTimes[i]), strings.Join(accs, " "))
	}
	return rep, nil
}

// roundPlan is RunGame's randomness for one round, derived the same way:
// the split, then one seed per training sample, one per test sample, then
// the model's seed.
type roundPlan struct {
	train, test                []dataset.Sample
	trainSeeds, testSeeds      []int64
	modelSeed                  int64
	trainT, testT              string
	normalizeTrain, normalizeT bool
}

func planRound(set *dataset.Set, cfg core.GameConfig) roundPlan {
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := roundPlan{trainT: "none", testT: "none"}
	p.train, p.test = set.Split(grTrain, rng)
	draw := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = rng.Int63()
		}
		return s
	}
	p.trainSeeds = draw(len(p.train))
	p.testSeeds = draw(len(p.test))
	p.modelSeed = rng.Int63()
	switch cfg.Game {
	case 1:
		p.testT = cfg.Evader
	case 2:
		p.trainT, p.testT = cfg.Evader, cfg.Evader
	case 3:
		p.testT = cfg.Evader
		p.normalizeTrain = cfg.Pipeline.Normalizer != passes.O0
		p.normalizeT = p.normalizeTrain
	}
	return p
}

// roundSeed is RunRoundsN's per-round seed derivation.
func roundSeed(cfg core.GameConfig, r int) core.GameConfig {
	cfg.Seed += int64(r) * 7919
	return cfg
}

// sizeAcc accumulates instruction counts around the IR transforms.
type sizeAcc struct {
	optBefore, optAfter int
	obfBefore, obfAfter int
}

// transformModule is core.Transform (or, given the untrusted tier's
// compileThaw, core.TransformUntrusted) spelled out through the layers'
// public calls, so each can be timed.
func transformModule(t *tracer, compileThaw func(src, name string) (*ir.Module, error),
	src, name string, rng *rand.Rand, acc *sizeAcc) (*ir.Module, error) {
	thaw := func() (m *ir.Module, err error) {
		t.do("progcache.thaw", func() { m, err = compileThaw(src, "prog") })
		return m, err
	}
	switch name {
	case "none", "", "O0":
		return thaw()
	case "O1", "O2", "O3":
		m, err := thaw()
		if err != nil {
			return nil, err
		}
		lvl, _ := passes.ParseLevel(name)
		return m, optimize(t, m, lvl, acc)
	case "bcf", "fla", "sub", "ollvm":
		m, err := thaw()
		if err != nil {
			return nil, err
		}
		before := m.NumInstrs()
		t.do("obfus.apply", func() { err = obfus.Apply(m, name, rng) })
		if acc != nil {
			acc.obfBefore += before
			acc.obfAfter += m.NumInstrs()
		}
		return m, err
	case "rs", "mcmc", "drlsg", "ga":
		var out string
		var err error
		t.do("srcobf.transform", func() { out, err = srcobf.TransformSource(src, name, rng) })
		if err != nil {
			return nil, err
		}
		return compileSource(t, out, "prog")
	}
	return nil, fmt.Errorf("unknown transformation %q", name)
}

// compileSource is minic.CompileSource with parse and codegen timed apart.
func compileSource(t *tracer, src, name string) (*ir.Module, error) {
	var f *minic.File
	var err error
	t.do("minic.parse", func() { f, err = minic.Parse(src) })
	if err != nil {
		return nil, err
	}
	var m *ir.Module
	t.do("minic.codegen", func() { m, err = minic.Compile(f, name) })
	return m, err
}

func optimize(t *tracer, m *ir.Module, lvl passes.Level, acc *sizeAcc) error {
	before := m.NumInstrs()
	var err error
	t.do("passes.optimize", func() { err = passes.Optimize(m, lvl) })
	if acc != nil {
		acc.optBefore += before
		acc.optAfter += m.NumInstrs()
	}
	return err
}

// grDiffCheck transforms a seeded sample of each transform cell's test
// programs with core.Transform exactly as the cell's rounds did (same
// per-sample seed, same normaliser) and compares each module's
// behaviour with difftest's oracle on the untransformed source. It returns
// how many modules it checked.
func grDiffCheck(rep *report, set *dataset.Set, cells []grCell, seed int64) int {
	pick := rand.New(rand.NewSource(seed ^ 0x5eed))
	checked := 0
	for _, c := range cells {
		if c.cfg.Game == 0 {
			continue
		}
		for r := 0; r < grRounds; r++ {
			p := planRound(set, roundSeed(c.cfg, r))
			for k := 0; k < grDiffEach; k++ {
				i := pick.Intn(len(p.test))
				src := p.test[i].Source
				m, err := core.Transform(src, p.testT, rand.New(rand.NewSource(p.testSeeds[i])))
				if err == nil && p.normalizeT {
					err = core.Normalize(m, c.cfg.Pipeline.Normalizer)
				}
				if err != nil {
					rep.fail("%s round %d sample %d: transform: %v", c.name, r, i, err)
					continue
				}
				oracle, err := difftest.Oracle(src)
				if err != nil {
					rep.fail("%s round %d sample %d: oracle: %v", c.name, r, i, err)
					continue
				}
				got := difftest.Observe(m, 64*oracle.Steps+65536)
				if v, why := difftest.Equivalent(oracle, got); v.Failure() {
					rep.fail("%s round %d sample %d: transformed module diverges: %s", c.name, r, i, why)
				}
				checked++
			}
		}
	}
	return checked
}

// replayRound replays one RunGame round through the layers' public calls
// and returns its accuracy.
func replayRound(t *tracer, set *dataset.Set, cfg core.GameConfig, acc *sizeAcc) (float64, error) {
	emb, err := embed.Get(cfg.Pipeline.Embedding)
	if err != nil {
		return 0, err
	}
	p := planRound(set, cfg)
	type feat struct {
		vec   embed.Vector
		graph *embed.Graph
	}
	featurize := func(samples []dataset.Sample, seeds []int64, transform string, normalize bool) ([]feat, error) {
		out := make([]feat, len(samples))
		for i, s := range samples {
			var fl *ir.Flat
			if !normalize && (transform == "none" || transform == "O0") {
				var err error
				t.do("progcache.flat", func() { fl, err = progcache.CompileFlat(s.Source, "prog") })
				if err != nil {
					return nil, err
				}
			} else {
				m, err := transformModule(t, progcache.CompileThaw, s.Source, transform, rand.New(rand.NewSource(seeds[i])), acc)
				if err != nil {
					return nil, err
				}
				if normalize {
					if err := optimize(t, m, cfg.Pipeline.Normalizer, acc); err != nil {
						return nil, err
					}
				}
				t.do("ir.flatten", func() { fl = ir.Flatten(m) })
			}
			if emb.Kind == embed.GraphKind {
				t.do("embed.graph", func() { out[i].graph = emb.GraphFlat(fl) })
			} else {
				t.do("embed.vec", func() { out[i].vec = emb.VecFlat(fl) })
			}
		}
		return out, nil
	}
	trainF, err := featurize(p.train, p.trainSeeds, p.trainT, p.normalizeTrain)
	if err != nil {
		return 0, err
	}
	testF, err := featurize(p.test, p.testSeeds, p.testT, p.normalizeT)
	if err != nil {
		return 0, err
	}
	ys := make([]int, len(p.train))
	for i, s := range p.train {
		ys[i] = s.Class
	}
	truth := make([]int, len(p.test))
	pred := make([]int, len(p.test))
	for i, s := range p.test {
		truth[i] = s.Class
	}
	fitName := "ml.fit." + cfg.Pipeline.Model
	if emb.Kind == embed.GraphKind {
		model := ml.NewDGCNN(rand.New(rand.NewSource(p.modelSeed)))
		gs := make([]*embed.Graph, len(trainF))
		for i, f := range trainF {
			gs[i] = f.graph
		}
		t.do(fitName, func() { err = model.FitGraphs(gs, ys, set.NumClasses) })
		if err != nil {
			return 0, err
		}
		for i, f := range testF {
			t.do("ml.predict", func() { pred[i] = model.PredictGraph(f.graph) })
		}
	} else {
		model, err := ml.New(cfg.Pipeline.Model, rand.New(rand.NewSource(p.modelSeed)))
		if err != nil {
			return 0, err
		}
		X := make([][]float64, len(trainF))
		for i, f := range trainF {
			X[i] = f.vec
		}
		t.do(fitName, func() { err = model.Fit(X, ys, set.NumClasses) })
		if err != nil {
			return 0, err
		}
		for i, f := range testF {
			t.do("ml.predict", func() { pred[i] = model.Predict(f.vec) })
		}
	}
	return stats.Accuracy(pred, truth)
}

// traceGameRounds runs one reference pass through core.RunRoundsN and then
// replays every cell's rounds through the layer calls under the tracer.
// Both run on one OS thread at a time (GOMAXPROCS 1), so the difference of
// their wall times is the tracing overhead rather than lost parallelism.
func traceGameRounds(ctx *runCtx) (*report, error) {
	rep := newReport()
	set, _, err := grSetup(ctx.seed)
	if err != nil {
		return nil, err
	}
	cells := gameCells(ctx.seed)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	before := obs.Capture()
	refStart := time.Now()
	ref, _, err := grPass(set, cells, 1)
	refDur := time.Since(refStart)
	delta := obs.Capture().Sub(before)
	rep.attempted += len(cells) * grRounds
	if err != nil {
		rep.failed += len(cells) * grRounds
		rep.fail("reference pass: %v", err)
		return rep, nil
	}

	t := newTracer()
	var acc sizeAcc
	endReplay := t.begin("bench.replay")
	for i, c := range cells {
		for r := 0; r < grRounds; r++ {
			cfg := roundSeed(c.cfg, r)
			var got float64
			t.do("bench.round", func() { got, err = replayRound(t, set, cfg, &acc) })
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.fail("replay %s round %d: %v", c.name, r, err)
				continue
			}
			if want := ref[i][r].Accuracy; got != want {
				rep.fail("replay fidelity: %s round %d accuracy %v, core.RunRoundsN gave %v", c.name, r, got, want)
			}
		}
	}
	endReplay()
	replayDur := time.Duration(t.spans[0].Dur())

	var feat, train time.Duration
	for i := range ref {
		for _, g := range ref[i] {
			feat += g.FeaturizeTime
			train += g.TrainTime
		}
	}
	m := rep.metrics
	m["core.featurize_share"] = ratio(feat.Seconds(), (feat + train).Seconds())
	m["core.train_share"] = ratio(train.Seconds(), (feat + train).Seconds())
	progcacheMetrics(m, delta)
	m["linalg.gemm_calls"] = float64(gemmCalls(delta))
	m["passes.instrs_ratio"] = ratio(float64(acc.optAfter), float64(acc.optBefore))
	m["obfus.instrs_growth"] = ratio(float64(acc.obfAfter), float64(acc.obfBefore))
	spanMetrics(m, t.spans)
	m["trace.overhead_s"] = (replayDur - refDur).Seconds()
	rep.note("# game-rounds traced: reference pass %.3f s, traced replay %.3f s (GOMAXPROCS 1)", refDur.Seconds(), replayDur.Seconds())
	finishTrace(ctx, rep, "game-rounds", t.spans)
	return rep, nil
}

// progcacheMetrics fills the pinned-cache ratios and timers from an obs
// delta.
func progcacheMetrics(m map[string]float64, d obs.Snapshot) {
	hits, misses := float64(d.Counters["progcache.hits"]), float64(d.Counters["progcache.misses"])
	m["progcache.hit_ratio"] = ratio(hits, hits+misses)
	m["progcache.compile_ms"] = float64(d.Timers["progcache.compile"].TotalNS) / 1e6
	m["progcache.thaw_ms"] = float64(d.Timers["progcache.thaw"].TotalNS) / 1e6
	m["progcache.flatten_ms"] = float64(d.Timers["progcache.flatten"].TotalNS) / 1e6
}

// gemmCalls sums the GEMM kernel dispatch counters (SIMD and portable).
func gemmCalls(d obs.Snapshot) int64 {
	var n int64
	for name, v := range d.Counters {
		if strings.HasPrefix(name, "linalg.gemm_") {
			n += v
		}
	}
	return n
}

// spanMetrics derives the per-layer metrics that come from spans: busy
// time per call kind, per-call means and every layer's self time.
func spanMetrics(m map[string]float64, spans []Span) {
	total := func(name string) float64 {
		d, _ := spanTotals(spans, name)
		return float64(d) / 1e6
	}
	mean := func(name string) float64 {
		d, n := spanTotals(spans, name)
		return ratio(float64(d)/1e3, float64(n))
	}
	for _, name := range []string{"minic.parse", "minic.codegen", "srcobf.transform", "srcobf.evolve",
		"passes.optimize", "obfus.apply", "ir.verify", "interp.run", "coevo.retrain"} {
		m[name+"_ms"] = total(name)
	}
	for _, model := range []string{"rf", "cnn", "dgcnn"} {
		m["ml.fit_ms."+model] = total("ml.fit." + model)
	}
	m["embed.vec_us"] = mean("embed.vec")
	m["embed.graph_us"] = mean("embed.graph")
	m["ml.predict_us"] = mean("ml.predict")
	byLayer := layerSelf(spans)
	for _, l := range traceLayers {
		m["self_ms."+l] = float64(byLayer[l]) / 1e6
	}
}

// finishTrace writes the spans under .bench_build/trace and adds the
// self-time table to the report.
func finishTrace(ctx *runCtx, rep *report, workload string, spans []Span) {
	path := fmt.Sprintf("%s/.bench_build/trace/%s-seed%d.jsonl", ctx.root, workload, ctx.seed)
	if err := writeSpans(path, spans); err != nil {
		rep.note("# trace: could not write spans: %v", err)
	} else {
		rep.note("# trace: %d spans written to %s", len(spans), path)
	}
	byLayer := layerSelf(spans)
	rep.note("%s", strings.TrimRight(selfTable(workload, byLayer), "\n"))
	rep.note("# tracing overhead (traced minus untraced wall time): %.3f s", rep.metrics["trace.overhead_s"])
}
