// Evader: watch what each transformation does to one program — code size,
// histogram distance (the evader's objective) and dynamic instruction count
// (the performance price).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
)

func main() {
	src := `
	int main() {
		int sum = 0;
		for (int i = 0; i < 200; i++) {
			if (i % 3 == 0) sum += i * 2;
			else sum -= i;
		}
		return sum + 100000;
	}`
	base, err := minic.CompileSource(src, "base")
	if err != nil {
		log.Fatal(err)
	}
	h0 := embed.HistogramFlat(ir.Flatten(base))
	r0, err := interp.Run(base, interp.Options{})
	if err != nil {
		log.Fatal(err)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "evader\tinstrs\thistogram dist\tdynamic steps\tslowdown\tresult\n")
	fmt.Fprintf(w, "none\t%d\t%.1f\t%d\t1.00x\t%d\n", base.NumInstrs(), 0.0, r0.Steps, r0.Ret)
	for _, tr := range []string{"O3", "sub", "bcf", "fla", "ollvm", "rs", "mcmc", "drlsg"} {
		m, err := core.Transform(src, tr, rand.New(rand.NewSource(7)))
		if err != nil {
			log.Fatal(err)
		}
		res, err := interp.Run(m, interp.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if res.Ret != r0.Ret {
			log.Fatalf("%s changed the program's behaviour!", tr)
		}
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%d\t%.2fx\t%d\n",
			tr, m.NumInstrs(), embed.Distance(h0, embed.HistogramFlat(ir.Flatten(m))),
			res.Steps, float64(res.Steps)/float64(r0.Steps), res.Ret)
	}
	w.Flush()
	fmt.Println("\nEvery transformation preserved the result — they only hide the code's shape.")
}
