package core_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/progcache"
	"repro/internal/stats"
)

// TestRunGameCacheInvariant is the clone-before-mutate regression guard:
// with a fixed seed, RunGame must return bit-identical Accuracy/F1 whether
// the compile cache is enabled or not, and under GOMAXPROCS=1 vs. many.
// A cached master leaking mutations (a missing clone, a shallow field in
// ir.Clone) shows up here as a divergence between the configurations.
func TestRunGameCacheInvariant(t *testing.T) {
	set := smallSet(t, 5, 8, 31)
	cfgs := []core.GameConfig{
		{Game: 0, Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"}, Seed: 7},
		{Game: 1, Evader: "ollvm", Pipeline: core.Pipeline{Embedding: "histogram", Model: "knn"}, Seed: 7},
		{Game: 2, Evader: "sub", Pipeline: core.Pipeline{Embedding: "ir2vec", Model: "lr"}, Seed: 7},
	}
	type outcome struct{ acc, f1 float64 }
	run := func(cfg core.GameConfig) outcome {
		t.Helper()
		res, err := core.RunGame(set, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{res.Accuracy, res.F1}
	}
	for _, cfg := range cfgs {
		progcache.SetEnabled(true)
		cachedCold := run(cfg) // may populate the cache
		cachedWarm := run(cfg) // served from the cache
		progcache.SetEnabled(false)
		uncached := run(cfg)
		progcache.SetEnabled(true)

		old := runtime.GOMAXPROCS(1)
		serial := run(cfg)
		runtime.GOMAXPROCS(old)

		if cachedCold != cachedWarm || cachedWarm != uncached || uncached != serial {
			t.Fatalf("game %d: results depend on cache/parallelism: cold=%v warm=%v uncached=%v serial=%v",
				cfg.Game, cachedCold, cachedWarm, uncached, serial)
		}
	}
}

// TestRunRoundsWorkerInvariance checks that the parallel round scheduler
// preserves the historical per-round seed derivation: any worker count must
// produce the same per-round results in the same order.
func TestRunRoundsWorkerInvariance(t *testing.T) {
	set := smallSet(t, 4, 8, 32)
	cfg := core.GameConfig{
		Game:     1,
		Evader:   "sub",
		Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"},
		Seed:     5,
	}
	const rounds = 4
	ref, refSum, err := core.RunRoundsN(set, cfg, rounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, rounds, 16} {
		got, gotSum, err := core.RunRoundsN(set, cfg, rounds, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d rounds, want %d", workers, len(got), len(ref))
		}
		for r := range ref {
			if got[r].Accuracy != ref[r].Accuracy || got[r].F1 != ref[r].F1 {
				t.Fatalf("workers=%d round %d: got %.6f/%.6f want %.6f/%.6f",
					workers, r, got[r].Accuracy, got[r].F1, ref[r].Accuracy, ref[r].F1)
			}
		}
		if gotSum != refSum {
			t.Fatalf("workers=%d: summary %+v != %+v", workers, gotSum, refSum)
		}
	}
}

// TestRunRoundsCachedUncachedInvariance is the round-level half of the thaw
// equivalence contract: with a fixed seed, RunRoundsN must produce
// bit-identical per-round results and summaries whether the transform
// pipeline draws its private module copies from cached flat views
// (ir.Thaw) or compiles every copy afresh (cache disabled) — at 1, 4 and 8
// workers.
func TestRunRoundsCachedUncachedInvariance(t *testing.T) {
	defer progcache.SetEnabled(true)
	set := smallSet(t, 4, 8, 36)
	cfg := core.GameConfig{
		Game:     1,
		Evader:   "ollvm",
		Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"},
		Seed:     9,
	}
	const rounds = 3
	type run struct {
		res []core.GameResult
		sum stats.Summary
	}
	runAt := func(workers int, cached bool) run {
		t.Helper()
		progcache.SetEnabled(cached)
		res, sum, err := core.RunRoundsN(set, cfg, rounds, workers)
		if err != nil {
			t.Fatal(err)
		}
		// Wall-clock cells are run-dependent by nature; everything else must
		// be bit-identical.
		for i := range res {
			res[i].FeaturizeTime = 0
			res[i].TrainTime = 0
		}
		return run{res, sum}
	}
	ref := runAt(1, true)
	for _, workers := range []int{1, 4, 8} {
		for _, cached := range []bool{true, false} {
			got := runAt(workers, cached)
			if !reflect.DeepEqual(got.res, ref.res) || got.sum != ref.sum {
				t.Fatalf("workers=%d cached=%v diverged from the cached serial run:\n  got:  %+v %+v\n  want: %+v %+v",
					workers, cached, got.res, got.sum, ref.res, ref.sum)
			}
		}
	}
}

// TestTrainParallelInvariance checks the end-to-end guarantee of the
// data-parallel training + parallel evaluation path: a full game round —
// sharded model fit, worker-pool test-set prediction — must be
// byte-identical at GOMAXPROCS 1, 4 and 8, which set how many goroutines
// ml trains and core predicts with.
func TestTrainParallelInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	set := smallSet(t, 4, 8, 35)
	cfgs := []core.GameConfig{
		{Game: 0, Pipeline: core.Pipeline{Embedding: "histogram", Model: "mlp"}, Seed: 11},
		{Game: 1, Evader: "sub", Pipeline: core.Pipeline{Embedding: "cfg", Model: "dgcnn"}, Seed: 11},
	}
	for _, cfg := range cfgs {
		type outcome struct{ acc, f1 float64 }
		var ref outcome
		for i, workers := range []int{1, 4, 8} {
			runtime.GOMAXPROCS(workers)
			res, err := core.RunGame(set, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := outcome{res.Accuracy, res.F1}
			if i == 0 {
				ref = got
				continue
			}
			if got != ref {
				t.Fatalf("%s/%s: workers=%d diverges: %v != %v (serial)",
					cfg.Pipeline.Embedding, cfg.Pipeline.Model, workers, got, ref)
			}
		}
	}
}

func TestTrainFracValidation(t *testing.T) {
	set := smallSet(t, 4, 6, 33)
	base := core.GameConfig{Game: 0, Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"}, Seed: 1}
	for _, frac := range []float64{-0.5, 1.0, 1.5} {
		cfg := base
		cfg.TrainFrac = frac
		if _, err := core.RunGame(set, cfg); err == nil {
			t.Fatalf("TrainFrac=%v: invalid split accepted instead of rejected", frac)
		}
	}
	// The zero value still means "use the paper's 0.75 default".
	if _, err := core.RunGame(set, base); err != nil {
		t.Fatalf("zero TrainFrac should default, got %v", err)
	}
}

func TestEvaderValidatedUpFront(t *testing.T) {
	set := smallSet(t, 4, 6, 34)
	for _, game := range []int{1, 2, 3} {
		cfg := core.GameConfig{
			Game:     game,
			Evader:   "olvm", // typo for ollvm
			Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"},
			Seed:     1,
		}
		_, err := core.RunGame(set, cfg)
		if err == nil {
			t.Fatalf("game %d accepted unknown evader", game)
		}
		if !strings.Contains(err.Error(), "unknown evader") {
			t.Fatalf("game %d: want an up-front evader error, got the late form: %v", game, err)
		}
		if strings.Contains(err.Error(), "sample") {
			t.Fatalf("game %d: evader error still surfaces from a worker: %v", game, err)
		}
	}
	// Game 0 ignores the evader entirely — even a bogus one.
	cfg := core.GameConfig{Game: 0, Evader: "olvm",
		Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"}, Seed: 1}
	if _, err := core.RunGame(set, cfg); err != nil {
		t.Fatalf("game 0 should ignore the evader, got %v", err)
	}
	// Every registered transformation must pass validation.
	for _, name := range core.TransformNames() {
		if err := core.ValidateEvader(name); err != nil {
			t.Fatalf("registered evader %q rejected: %v", name, err)
		}
	}
}
