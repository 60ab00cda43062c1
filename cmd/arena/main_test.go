package main

import (
	"flag"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/par"
)

// TestRunCellsEdges pins how the experiment commands fan their cells out
// through par.For with the -j value: zero cells run nothing, any worker
// count (default, negative, larger than the cell count) is accepted, and
// every cell runs exactly once.
func TestRunCellsEdges(t *testing.T) {
	cases := []struct {
		name       string
		n, workers int
	}{
		{"no cells, default workers", 0, 0},
		{"no cells, many workers", 0, 5},
		{"fewer cells than workers", 3, 10},
		{"default workers", 5, 0},
		{"negative workers", 1, -2},
		{"sequential", 4, 1},
		{"parallel", 8, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			seen := make([]atomic.Bool, tc.n)
			err := par.For(tc.n, tc.workers, func(i int) error {
				calls.Add(1)
				if seen[i].Swap(true) {
					return fmt.Errorf("cell %d ran twice", i)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := calls.Load(); got != int64(tc.n) {
				t.Fatalf("ran %d cells, want %d", got, tc.n)
			}
		})
	}
}

// TestParallelCellTally drives real games through par.For — the path the
// old per-command tally struct was written on — and checks the atomic
// metrics registry under load. `make race` runs this with -race; it is the
// regression test for the phase-tally data race the obs registry replaced.
func TestParallelCellTally(t *testing.T) {
	set, err := dataset.Generate(3, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Capture()
	pipelines := []core.Pipeline{
		{Embedding: "histogram", Model: "rf"},
		{Embedding: "histogram", Model: "knn"},
		{Embedding: "milepost", Model: "knn"},
		{Embedding: "milepost", Model: "lr"},
	}
	results := make([]core.GameResult, len(pipelines))
	err = par.For(len(pipelines), len(pipelines), func(i int) error {
		rs, _, err := core.RunRoundsN(set, core.GameConfig{
			Game: 0, Pipeline: pipelines[i], Seed: 7,
		}, 2, 2)
		if err != nil {
			return err
		}
		results[i] = rs[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d := obs.Capture().Sub(before)
	rounds := int64(len(pipelines) * 2)
	if got := d.Counters["phase.rounds"]; got != rounds {
		t.Fatalf("phase.rounds delta = %d, want %d", got, rounds)
	}
	if d.Timers["phase.featurize"].Count != rounds {
		t.Fatalf("featurize spans = %d, want one per round (%d)",
			d.Timers["phase.featurize"].Count, rounds)
	}
	if d.Timers["phase.fit"].Count != rounds {
		t.Fatalf("fit spans = %d, want one per round (%d)", d.Timers["phase.fit"].Count, rounds)
	}
	for i, r := range results {
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Fatalf("cell %d accuracy out of range: %v", i, r.Accuracy)
		}
	}
}

// TestFlagConfigCapturesDefaults: manifests must pin every knob, including
// flags the user never typed.
func TestFlagConfigCapturesDefaults(t *testing.T) {
	fs := flag.NewFlagSet("game0", flag.ContinueOnError)
	c := addCommon(fs)
	if err := fs.Parse([]string{"-classes", "7"}); err != nil {
		t.Fatal(err)
	}
	cfg := flagConfig(fs)
	if cfg["classes"] != "7" {
		t.Fatalf("typed flag not captured: %q", cfg["classes"])
	}
	if cfg["rounds"] != "3" {
		t.Fatalf("default flag not captured: %q", cfg["rounds"])
	}
	for _, name := range []string{"seed", "out", "debug-addr"} {
		if _, ok := cfg[name]; !ok {
			t.Fatalf("flag %q missing from config", name)
		}
	}
	_ = c
}
