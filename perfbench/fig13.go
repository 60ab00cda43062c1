package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obfus"
	"repro/internal/passes"
	"repro/internal/progcache"
)

const (
	// fig13MaxSteps is core.SpeedupEngine's per-execution step budget.
	fig13MaxSteps = 2_000_000_000
	// fig13Seed is the seed of every core.Speedup call. The seed drives
	// only the ollvm obfuscation, and with it the amount of work: over
	// seeds 1-10 a call interprets 255-320 M steps, so seed-to-seed spread
	// would be as large as the host's. The workload is pinned to one seed,
	// as coevo-arena is; --seed is recorded only.
	fig13Seed = 5
	// fig13Calls is how many timed core.Speedup calls a run makes. A call
	// takes 12-17 s on a shared 2-core Intel Xeon host, so a run lasts
	// 45-55 s whatever its --seconds.
	fig13Calls = 3
)

// fig13Setup compiles every Benchmark-Game kernel into an empty progcache
// with its flat view, which is what core.Speedup thaws from.
func fig13Setup() (time.Duration, error) {
	progcache.Reset()
	start := time.Now()
	for _, p := range dataset.BenchGame() {
		if _, err := progcache.CompileFlat(p.Source, p.Name); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// stepsOf flattens a report's step counts in kernel order.
func stepsOf(rep *core.SpeedupReport) []int64 {
	var out []int64
	for _, r := range rep.Rows {
		out = append(out, r.O0Steps, r.O3Steps, r.OllvmSteps)
	}
	return out
}

func firstStepDiff(rows []core.SpeedupRow, a, b []int64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d step counts vs %d", len(a), len(b))
	}
	configs := []string{"O0", "O3", "ollvm"}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("%s/%s: %d vs %d steps", rows[i/3].Name, configs[i%3], a[i], b[i])
		}
	}
	return ""
}

func runFig13(ctx *runCtx) (*report, error) {
	if ctx.trace {
		return traceFig13(ctx)
	}
	rep := newReport()
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		d, err := fig13Setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}

	// Time fig13Calls calls; latency_ms_p50 is their median. The median
	// of more calls is what steadies the figure: each call is long, so a
	// slow stretch of the shared host moves a whole call.
	seed := int64(fig13Seed)
	var calls []time.Duration
	var first *core.SpeedupReport
	a0, rss := totalAlloc(), sampleRSS()
	for len(calls) < fig13Calls {
		t := time.Now()
		sp, err := core.Speedup(seed)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.fail("core.Speedup(%d): %v", seed, err)
			break
		}
		calls = append(calls, time.Since(t))
		if first == nil {
			first = sp
		} else if d := firstStepDiff(first.Rows, stepsOf(first), stepsOf(sp)); d != "" {
			rep.fail("step counts changed between repeats: %s", d)
		}
	}
	rssMed := rss.medianMB()
	if first == nil {
		return rep, nil
	}
	alloc := float64(totalAlloc() - a0)

	// Untimed check: the bytecode VM must report the same step counts as
	// the default engine, kernel by kernel.
	vmRep, err := core.SpeedupEngine(seed, "vm")
	if err != nil {
		rep.fail("vm speedup: %v", err)
	} else if d := firstStepDiff(first.Rows, stepsOf(first), stepsOf(vmRep)); d != "" {
		rep.fail("step counts differ between the default engine and vm: %s", d)
	}
	// A digest of the step counts, so runs of one seed can be compared.
	d := newDigest()
	for _, n := range stepsOf(first) {
		d.add("steps", []byte(fmt.Sprint(n)))
	}

	runs := float64(3 * len(first.Rows))
	ms := msOf(calls)
	q, tail := tailPercentile(ms)
	rep.metrics["setup_s"] = median(secondsOf(setups))
	rep.metrics["latency_ms_p50"] = median(ms)
	rep.metrics["ops_per_s"] = runs / (median(ms) / 1000)
	rep.metrics["alloc_mb"] = alloc / (runs * float64(len(calls))) / (1 << 20)
	rep.metrics["rss_mb"] = rssMed
	var steps int64
	for _, s := range stepsOf(first) {
		steps += s
	}
	rep.note("# fig13-speedup: %d kernels x 3 configurations, %d steps at core.Speedup seed %d (--seed %d recorded only); %d calls; p50 %.1f ms, %s %.1f ms; calls %.0f ms",
		len(first.Rows), steps, seed, ctx.seed, len(calls), median(ms), percentileLabel(q), tail, ms)
	rep.note("# workload-metric speedup_s %.4f s", median(ms)/1000)
	rep.note("# workload-metric fail_ratio %.4f ratio", ratio(float64(rep.failed), float64(rep.attempted)))
	rep.note("# geomean O3 speedup %.4f, ollvm slowdown %.4f", first.GeoO3Speedup, first.GeoOllvmSlowdown)
	rep.note("# checks: step counts identical over %d calls on the default engine and on the vm engine; seed %d step digest %s", len(calls), seed, d.hex()[:16])
	return rep, nil
}

// traceFig13 times one core.Speedup call and then replays each kernel
// through the layer calls it makes (thaw, passes.Optimize, obfus.Apply,
// the engine's Run), with the same RNG derivation.
func traceFig13(ctx *runCtx) (*report, error) {
	rep := newReport()
	if _, err := fig13Setup(); err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	refStart := time.Now()
	ref, err := core.Speedup(fig13Seed)
	refDur := time.Since(refStart)
	rep.attempted++
	if err != nil {
		rep.failed++
		rep.fail("core.Speedup: %v", err)
		return rep, nil
	}
	eng, err := interp.EngineByName("")
	if err != nil {
		return nil, err
	}

	t := newTracer()
	var acc sizeAcc
	var got []int64
	var steps int64
	rng := rand.New(rand.NewSource(fig13Seed))
	endReplay := t.begin("bench.replay")
	for _, p := range dataset.BenchGame() {
		for _, config := range []string{"O0", "O3", "ollvm"} {
			var m *ir.Module
			t.do("progcache.thaw", func() { m, err = progcache.CompileThaw(p.Source, p.Name) })
			if err != nil {
				return nil, err
			}
			switch config {
			case "O3":
				err = optimize(t, m, passes.O3, &acc)
			case "ollvm":
				before := m.NumInstrs()
				r := rand.New(rand.NewSource(rng.Int63()))
				t.do("obfus.apply", func() { err = obfus.Apply(m, "ollvm", r) })
				acc.obfBefore += before
				acc.obfAfter += m.NumInstrs()
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.Name, config, err)
			}
			var res *interp.Result
			t.do("interp.run", func() { res, err = eng.Run(m, interp.Options{MaxSteps: fig13MaxSteps}) })
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.fail("%s/%s: %v", p.Name, config, err)
				got = append(got, -1)
				continue
			}
			got = append(got, res.Steps)
			steps += res.Steps
		}
	}
	endReplay()
	replayDur := time.Duration(t.spans[0].Dur())
	if d := firstStepDiff(ref.Rows, stepsOf(ref), got); d != "" {
		rep.fail("replay fidelity: step counts differ from core.Speedup: %s", d)
	}

	m := rep.metrics
	spanMetrics(m, t.spans)
	runDur, _ := spanTotals(t.spans, "interp.run")
	m["interp.steps_per_s"] = ratio(float64(steps), runDur.Seconds())
	m["interp.engine_share"] = ratio(runDur.Seconds(), replayDur.Seconds())
	m["passes.instrs_ratio"] = ratio(float64(acc.optAfter), float64(acc.optBefore))
	m["obfus.instrs_growth"] = ratio(float64(acc.obfAfter), float64(acc.obfBefore))
	m["trace.overhead_s"] = (replayDur - refDur).Seconds()
	rep.note("# fig13-speedup traced: core.Speedup %.3f s, traced replay %.3f s; engine share of the replay %.1f%%",
		refDur.Seconds(), replayDur.Seconds(), 100*m["interp.engine_share"])
	finishTrace(ctx, rep, "fig13-speedup", t.spans)
	return rep, nil
}
