// Quickstart: compile a program to IR, embed it, and play Game 0 — the
// classifier-only baseline — on a small synthetic benchmark.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/minic"
)

func main() {
	// 1. Compile a MiniC program to the SSA IR.
	src := `
	int fib(int n) {
		if (n < 2) return n;
		return fib(n - 1) + fib(n - 2);
	}
	int main() { return fib(10); }`
	mod, err := minic.CompileSource(src, "quickstart")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d functions, %d instructions\n",
		len(mod.Functions), mod.NumInstrs())

	// 2. Embed it: the 63-dimensional opcode histogram.
	hist := embed.HistogramFlat(ir.Flatten(mod))
	nonzero := 0
	for _, v := range hist {
		if v > 0 {
			nonzero++
		}
	}
	fmt.Printf("histogram: %d of %d opcode dimensions populated\n", nonzero, len(hist))

	// 3. Build a balanced dataset: 8 programming problems, 16 randomized
	// solutions each (a miniature POJ-104).
	set, err := dataset.Generate(8, 16, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d classes x %d solutions\n", set.NumClasses, len(set.Samples)/set.NumClasses)

	// 4. Play Game 0: train a random forest on histograms and classify
	// held-out solutions.
	res, err := core.RunGame(set, core.GameConfig{
		Game:     0,
		Pipeline: core.Pipeline{Embedding: "histogram", Model: "rf"},
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Game 0: accuracy %.2f%%, F1 %.2f%% (train %d / test %d)\n",
		100*res.Accuracy, 100*res.F1, res.NumTrain, res.NumTest)
}
