package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/coevo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/ml"
	"repro/internal/progcache"
	"repro/internal/srcobf"
	"repro/internal/stats"
)

// coevo-arena runs the coevo-smoke configuration: 4 classes x 8 programs,
// dataset and arena seed 5, every other knob at its default. At that seed
// member size blows up in generation 6, so 7 generations pass it. The
// generation at which members blow up depends on the seed, so the arena is
// pinned to the one seed where it is known; --seed is recorded only.
const (
	coevoClasses     = 4
	coevoPer         = 8
	coevoSeed        = 5
	coevoGenerations = 7
)

func coevoSetup() (*dataset.Set, time.Duration, error) {
	progcache.Reset()
	start := time.Now()
	set, err := dataset.Generate(coevoClasses, coevoPer, coevoSeed)
	if err != nil {
		return nil, 0, err
	}
	for _, s := range set.Samples {
		if _, err := core.EmbedSource(s.Source, "histogram"); err != nil {
			return nil, 0, err
		}
	}
	return set, time.Since(start), nil
}

func coevoConfig(set *dataset.Set) coevo.Config {
	return coevo.Config{Set: set, Seed: coevoSeed, Generations: coevoGenerations}
}

// resultDigest hashes everything deterministic in an arena result: the
// retrain timings are zeroed first.
func resultDigest(res *coevo.Result) string {
	c := *res
	c.Generations = append([]coevo.GenerationResult(nil), res.Generations...)
	for i := range c.Generations {
		c.Generations[i].RetrainNS = 0
	}
	data, _ := json.Marshal(c)
	d := newDigest()
	d.add("coevo.Result", data)
	return d.hex()
}

// checkZeroSum fails the report if any generation's two Elo ratings do not
// sum to what both sides started with.
func checkZeroSum(rep *report, res *coevo.Result) {
	for _, g := range res.Generations {
		if sum := g.AttackerElo + g.DefenderElo; math.Abs(sum-2*stats.EloInitial) > 1e-6 {
			rep.fail("generation %d: Elo not zero-sum (attacker %v + defender %v = %v)", g.Gen, g.AttackerElo, g.DefenderElo, sum)
		}
	}
}

func runCoevoArena(ctx *runCtx) (*report, error) {
	if ctx.trace {
		return traceCoevo(ctx)
	}
	rep := newReport()
	var set *dataset.Set
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		s, d, err := coevoSetup()
		if err != nil {
			return nil, err
		}
		set, setups = s, append(setups, d)
	}

	// Two runs at least, for the repeat check; more while the next is
	// expected to end within the run's time.
	var runs []time.Duration
	var digest0 string
	var last *coevo.Result
	a0, rss := totalAlloc(), sampleRSS()
	start := time.Now()
	for len(runs) < 2 || time.Since(start)+runs[len(runs)-1] <= ctx.seconds {
		t := time.Now()
		res, err := coevo.Run(coevoConfig(set))
		rep.attempted += coevoGenerations
		if err != nil {
			rep.failed += coevoGenerations
			rep.fail("coevo.Run: %v", err)
			break
		}
		runs = append(runs, time.Since(t))
		checkZeroSum(rep, res)
		if d := resultDigest(res); digest0 == "" {
			digest0 = d
		} else if d != digest0 {
			rep.fail("arena result digest changed between repeats: %s vs %s", digest0[:16], d[:16])
		}
		last = res
	}
	rssMed := rss.medianMB()
	if last == nil {
		return rep, nil
	}
	alloc := float64(totalAlloc() - a0)
	gens := float64(coevoGenerations)
	ms := msOf(runs)
	q, tail := tailPercentile(ms)
	rep.metrics["setup_s"] = median(secondsOf(setups))
	rep.metrics["latency_ms_p50"] = median(ms)
	rep.metrics["ops_per_s"] = gens / (median(ms) / 1000)
	rep.metrics["alloc_mb"] = alloc / (gens * float64(len(runs))) / (1 << 20)
	rep.metrics["rss_mb"] = rssMed
	rep.note("# coevo-arena: %dx%d programs, arena seed %d, %d generations; %d runs; p50 %.1f ms, %s %.1f ms",
		coevoClasses, coevoPer, coevoSeed, coevoGenerations, len(runs), median(ms), percentileLabel(q), tail)
	rep.note("# workload-metric coevo_run_s %.4f s", median(ms)/1000)
	rep.note("# workload-metric fail_ratio %.4f ratio", ratio(float64(rep.failed), float64(rep.attempted)))
	rep.note("# checks: Elo zero-sum in every generation; result digest %s identical over %d runs", digest0[:16], len(runs))
	for _, g := range last.Generations {
		rep.note("#   gen %d evasion %.3f holdout %.3f new %d rolled_back %t elo %.1f/%.1f",
			g.Gen, g.EvasionRate, g.HoldoutAcc, g.NewEvasions, g.RolledBack, g.AttackerElo, g.DefenderElo)
	}
	return rep, nil
}

// replayAttacker mirrors the arena's per-population state.
type replayAttacker struct {
	pop       *srcobf.Population
	trueClass int
	origVec   embed.Vector
}

// genProbe is what the benchmark measures on one generation's members from
// outside: the longest genome and the largest member.
type genProbe struct {
	genomeMax, instrsMax int
	evolve               time.Duration
}

// replayArena re-runs coevo.Run's loop through srcobf.NewPopulation and
// Evolve, timing the objective it supplies, and compiles, verifies and
// flattens every member from outside. It returns the per-generation
// results in coevo's own form, for the fidelity check.
func replayArena(t *tracer, set *dataset.Set) ([]coevo.GenerationResult, []genProbe, error) {
	const (
		embedding = "histogram"
		popSize   = 4
		attackers = 4
		trainFrac = 0.5
		tolerance = 0.02
		bonus     = 1e6 // the arena's evasion bonus: evading first, distance second
	)
	emb, err := embed.Get(embedding)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(coevoSeed))
	train, rest := set.Split(trainFrac, rng)
	hold, attack := rest[:len(rest)/2], rest[len(rest)/2:]
	featurize := func(samples []dataset.Sample) ([][]float64, []int, error) {
		X := make([][]float64, len(samples))
		y := make([]int, len(samples))
		for i, s := range samples {
			var err error
			t.do("embed.source", func() { X[i], err = core.EmbedSource(s.Source, embedding) })
			if err != nil {
				return nil, nil, err
			}
			y[i] = s.Class
		}
		return X, y, nil
	}
	trainX, trainY, err := featurize(train)
	if err != nil {
		return nil, nil, err
	}
	holdX, holdY, err := featurize(hold)
	if err != nil {
		return nil, nil, err
	}
	var ats []*replayAttacker
	for i := 0; i < min(attackers, len(attack)); i++ {
		s := attack[i]
		var f *minic.File
		t.do("minic.parse", func() { f, err = minic.Parse(s.Source) })
		if err != nil {
			return nil, nil, err
		}
		var vec embed.Vector
		t.do("embed.source", func() { vec, err = core.EmbedSource(s.Source, embedding) })
		if err != nil {
			return nil, nil, err
		}
		var pop *srcobf.Population
		r := rand.New(rand.NewSource(rng.Int63()))
		t.do("srcobf.new_population", func() { pop, err = srcobf.NewPopulation(f, "ga", popSize, nil, r) })
		if err != nil {
			return nil, nil, err
		}
		ats = append(ats, &replayAttacker{pop: pop, trueClass: s.Class, origVec: vec})
	}
	model, err := ml.New("lr", rand.New(rand.NewSource(coevoSeed+7)))
	if err != nil {
		return nil, nil, err
	}
	t.do("ml.fit.lr", func() { err = model.Fit(trainX, trainY, set.NumClasses) })
	if err != nil {
		return nil, nil, err
	}
	holdoutAcc := func() float64 {
		hit := 0
		for i, x := range holdX {
			if model.Predict(x) == holdY[i] {
				hit++
			}
		}
		return float64(hit) / float64(len(holdX))
	}
	lastAcc, version := holdoutAcc(), int64(1)
	var snap bytes.Buffer
	if err := ml.SaveLineage(&snap, model, ml.Lineage{Generation: 1}); err != nil {
		return nil, nil, err
	}
	lastGood := snap.Bytes()
	attElo, defElo := stats.EloInitial, stats.EloInitial
	var poolX [][]float64
	var poolY []int
	seen := make(map[string]bool)

	master := rand.New(rand.NewSource(coevoSeed + 1000003))
	var out []coevo.GenerationResult
	var probes []genProbe
	for gen := 1; gen <= coevoGenerations; gen++ {
		endGen := t.begin(fmt.Sprintf("bench.gen%d", gen))
		seeds := make([]int64, len(ats))
		for i := range seeds {
			seeds[i] = master.Int63()
		}
		cur := model
		gr := coevo.GenerationResult{Gen: gen}
		var probe genProbe
		evaded, total := 0, 0
		divSum, divPops := 0.0, 0
		for i, at := range ats {
			orig, class := at.origVec, at.trueClass
			at.pop.SetObjective(func(fl *ir.Flat) (float64, bool) {
				end := t.begin("embed.objective")
				v := emb.VecFlat(fl)
				s := embed.Distance(orig, v)
				if cur.Predict(v) != class {
					s += bonus
				}
				end()
				return s, true
			})
			evStart := time.Now()
			t.do("srcobf.evolve", func() { at.pop.Evolve(rand.New(rand.NewSource(seeds[i]))) })
			probe.evolve += time.Since(evStart)
			var vecs []embed.Vector
			for mi := range at.pop.Members {
				mem := &at.pop.Members[mi]
				probe.genomeMax = max(probe.genomeMax, len(mem.Seq))
				n, err := probeMember(t, mem.File)
				if err != nil {
					return nil, nil, fmt.Errorf("generation %d member %d.%d: %w", gen, i, mi, err)
				}
				probe.instrsMax = max(probe.instrsMax, n)
				fl := mem.Flat
				if fl == nil {
					if fl, err = srcobf.FlatView(mem.File); err != nil {
						vecs = append(vecs, nil)
						total++
						continue
					}
				}
				v := emb.VecFlat(fl)
				vecs = append(vecs, v)
				total++
				if cur.Predict(v) == class {
					continue
				}
				evaded++
				key := vecKey(v, class)
				if !seen[key] {
					seen[key] = true
					poolX = append(poolX, v)
					poolY = append(poolY, class)
					gr.NewEvasions++
				}
			}
			sum, cnt := 0.0, 0
			for x := 0; x < len(vecs); x++ {
				for y := x + 1; y < len(vecs); y++ {
					if vecs[x] != nil && vecs[y] != nil {
						sum += embed.Distance(vecs[x], vecs[y])
						cnt++
					}
				}
			}
			if cnt > 0 {
				divSum += sum / float64(cnt)
				divPops++
			}
		}
		if total > 0 {
			gr.EvasionRate = float64(evaded) / float64(total)
		}
		if divPops > 0 {
			gr.Diversity = divSum / float64(divPops)
		}
		gr.AttackerElo = stats.EloUpdate(attElo, defElo, float64(evaded), total, stats.EloK)
		gr.DefenderElo = stats.EloUpdate(defElo, attElo, float64(total-evaded), total, stats.EloK)
		attElo, defElo = gr.AttackerElo, gr.DefenderElo
		gr.Version, gr.HoldoutAcc = version, lastAcc
		if gr.NewEvasions > 0 {
			X := append(append([][]float64{}, trainX...), poolX...)
			y := append(append([]int{}, trainY...), poolY...)
			t.do("coevo.retrain", func() {
				if wf, ok := model.(ml.WarmFitter); ok {
					err = wf.FitWarm(X, y, set.NumClasses)
				} else {
					err = model.Fit(X, y, set.NumClasses)
				}
			})
			if err != nil {
				return nil, nil, err
			}
			acc := holdoutAcc()
			gr.HoldoutAcc = acc
			if acc < lastAcc-tolerance {
				if model, _, err = ml.LoadLineage(bytes.NewReader(lastGood)); err != nil {
					return nil, nil, err
				}
				gr.RolledBack = true
			} else {
				prev := version
				version++
				var buf bytes.Buffer
				if err := ml.SaveLineage(&buf, model, ml.Lineage{Generation: version, Parent: prev}); err != nil {
					return nil, nil, err
				}
				lastGood, lastAcc, gr.Version = buf.Bytes(), acc, version
			}
		}
		endGen()
		out = append(out, gr)
		probes = append(probes, probe)
	}
	return out, probes, nil
}

// probeMember prints a member, parses, compiles, verifies and flattens it
// from outside the population, under "probe" spans, and returns its size in
// IR instructions.
func probeMember(t *tracer, f *minic.File) (int, error) {
	defer t.begin("bench.probe")()
	var src string
	t.do("minic.print", func() { src = minic.Print(f) })
	m, err := compileSource(t, src, "member")
	if err != nil {
		return 0, err
	}
	t.do("ir.verify", func() { err = m.Verify() })
	if err != nil {
		return 0, err
	}
	t.do("ir.flatten", func() { _ = ir.Flatten(m) })
	return m.NumInstrs(), nil
}

// vecKey is the arena's dedupe key for one evasion: the exact bits of its
// feature vector plus its true class.
func vecKey(v []float64, class int) string {
	b := make([]byte, 0, len(v)*8+4)
	for _, x := range v {
		bits := math.Float64bits(x)
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(bits>>s))
		}
	}
	return fmt.Sprintf("%d|%s", class, b)
}

// traceCoevo times one coevo.Run and then the traced replay, both on one
// worker at GOMAXPROCS 1, and requires the replay to reproduce every
// generation's result.
func traceCoevo(ctx *runCtx) (*report, error) {
	rep := newReport()
	set, _, err := coevoSetup()
	if err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := coevoConfig(set)
	cfg.Workers = 1
	refStart := time.Now()
	ref, err := coevo.Run(cfg)
	refDur := time.Since(refStart)
	rep.attempted += coevoGenerations
	if err != nil {
		rep.failed += coevoGenerations
		rep.fail("coevo.Run: %v", err)
		return rep, nil
	}

	t := newTracer()
	endReplay := t.begin("bench.replay")
	got, probes, err := replayArena(t, set)
	endReplay()
	if err != nil {
		rep.fail("replay: %v", err)
		return rep, nil
	}
	replayDur := time.Duration(t.spans[0].Dur())
	for i := range got {
		want := ref.Generations[i]
		want.RetrainNS = 0
		if got[i] != want {
			rep.fail("replay fidelity: generation %d: replay %+v, coevo.Run %+v", i+1, got[i], want)
		}
	}

	m := rep.metrics
	spanMetrics(m, t.spans)
	var probeDur time.Duration
	for _, s := range t.spans {
		if s.Name == "bench.probe" {
			probeDur += time.Duration(s.Dur())
		}
	}
	for i, p := range probes {
		g := i + 1
		m[fmt.Sprintf("srcobf.evolve_ms.g%d", g)] = float64(p.evolve) / 1e6
		m[fmt.Sprintf("srcobf.genome_len_max.g%d", g)] = float64(p.genomeMax)
		m[fmt.Sprintf("srcobf.member_instrs_max.g%d", g)] = float64(p.instrsMax)
	}
	// The member probes are measurement the arena never does; they are
	// left out of the overhead and reported on their own.
	m["trace.overhead_s"] = (replayDur - probeDur - refDur).Seconds()
	rep.note("# coevo-arena traced: coevo.Run %.3f s, traced replay %.3f s of which member probes %.3f s (GOMAXPROCS 1)",
		refDur.Seconds(), replayDur.Seconds(), probeDur.Seconds())
	for i, p := range probes {
		rep.note("#   gen %d evolve %.1f ms genome_len_max %d member_instrs_max %d", i+1, float64(p.evolve)/1e6, p.genomeMax, p.instrsMax)
	}
	// Where each generation's time goes: self time per layer inside the
	// generation's span, the arena's own work apart from the probes.
	rep.note("# per-generation self time; the arena's work, then the member probes (minic, ir) apart")
	self := selfTimes(t.spans)
	for g := 1; g <= coevoGenerations; g++ {
		name := fmt.Sprintf("bench.gen%d", g)
		for _, s := range t.spans {
			if s.Name != name {
				continue
			}
			arena := layerSelfIn(self, descendants(t.spans, s, "bench.probe"))
			var probe []Span
			for _, p := range descendants(t.spans, s, "") {
				if p.Name == "bench.probe" {
					probe = append(probe, descendants(t.spans, p, "")...)
				}
			}
			probes := layerSelfIn(self, probe)
			rep.note("%s", selfTableLine(fmt.Sprintf("gen %d arena", g), arena))
			rep.note("%s", selfTableLine(fmt.Sprintf("gen %d probe", g), probes))
		}
	}
	finishTrace(ctx, rep, "coevo-arena", t.spans)
	return rep, nil
}

// descendants returns root and every span below it, in recording order
// (children are recorded after their parents), leaving out the subtrees of
// spans named skip.
func descendants(spans []Span, root Span, skip string) []Span {
	in := map[int]bool{root.ID: true}
	out := []Span{root}
	for _, s := range spans[root.ID+1:] {
		if in[s.Parent] && s.Name != skip {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// selfTableLine renders per-layer self time on one line, largest first.
func selfTableLine(title string, byLayer map[string]int64) string {
	line := "#   " + title + ":"
	var total int64
	for _, v := range byLayer {
		total += v
	}
	for _, l := range sortedLayers(byLayer) {
		line += fmt.Sprintf(" %s %.0fms(%.0f%%)", l, float64(byLayer[l])/1e6, 100*ratio(float64(byLayer[l]), float64(total)))
	}
	return line
}
