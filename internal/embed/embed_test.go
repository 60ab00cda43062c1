package embed_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/embed"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obfus"
)

const sample = `
int helper(int x) { return x * 2 + 1; }
int main() {
	int s = 0;
	for (int i = 0; i < 10; i++) {
		if (i % 2 == 0) s += helper(i);
		else s -= i;
	}
	float f = 1.5 * s;
	return s + (int)f;
}`

func mod(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := minic.CompileSource(src, "t")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

func TestHistogramDimensionAndCounts(t *testing.T) {
	m := mod(t, sample)
	h := embed.HistogramFlat(ir.Flatten(m))
	if len(h) != int(ir.NumOpcodes) {
		t.Fatalf("histogram length %d, want %d", len(h), ir.NumOpcodes)
	}
	total := 0.0
	for _, v := range h {
		if v < 0 {
			t.Fatal("negative histogram entry")
		}
		total += v
	}
	if int(total) != m.NumInstrs() {
		t.Fatalf("histogram sums to %v, module has %d instructions", total, m.NumInstrs())
	}
	if h[ir.OpCall] < 1 { // the helper call in the loop
		t.Fatalf("expected call opcodes counted, got %v", h[ir.OpCall])
	}
}

func TestAllEmbeddingsProduceOutput(t *testing.T) {
	fl := ir.Flatten(mod(t, sample))
	for _, name := range embed.Names() {
		e, err := embed.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		switch e.Kind {
		case embed.VectorKind:
			v := e.VecFlat(fl)
			if len(v) == 0 {
				t.Errorf("%s: empty vector", name)
			}
			nonzero := false
			for _, x := range v {
				if x != 0 {
					nonzero = true
				}
			}
			if !nonzero {
				t.Errorf("%s: all-zero vector", name)
			}
		case embed.GraphKind:
			g := e.GraphFlat(fl)
			if g.NumNodes() == 0 {
				t.Errorf("%s: empty graph", name)
			}
			if len(g.Edges) == 0 {
				t.Errorf("%s: no edges", name)
			}
			dim := g.FeatDim()
			for i, f := range g.NodeFeats {
				if len(f) != dim {
					t.Fatalf("%s: node %d feature dim %d != %d", name, i, len(f), dim)
				}
			}
			for i, e2 := range g.Edges {
				if e2[0] < 0 || e2[0] >= g.NumNodes() || e2[1] < 0 || e2[1] >= g.NumNodes() {
					t.Fatalf("%s: edge %d out of range: %v", name, i, e2)
				}
			}
			if len(g.EdgeTypes) != len(g.Edges) {
				t.Fatalf("%s: edge types not parallel to edges", name)
			}
		}
	}
}

func TestUnknownEmbedding(t *testing.T) {
	if _, err := embed.Get("word2vec"); err == nil {
		t.Fatal("expected error")
	}
}

func TestEmbeddingsAreDeterministic(t *testing.T) {
	fl := ir.Flatten(mod(t, sample))
	for _, name := range embed.VectorNames() {
		e, _ := embed.Get(name)
		a := e.VecFlat(fl)
		b := e.VecFlat(fl)
		if embed.Distance(a, b) != 0 {
			t.Errorf("%s: nondeterministic embedding", name)
		}
	}
}

func TestCFGCompactSmallerThanCFG(t *testing.T) {
	fl := ir.Flatten(mod(t, sample))
	full := embed.CFGFlat(fl)
	compact := embed.CFGCompactFlat(fl)
	if compact.NumNodes() >= full.NumNodes() {
		t.Fatalf("compact (%d nodes) should be smaller than full (%d nodes)",
			compact.NumNodes(), full.NumNodes())
	}
}

func TestCDFGHasDataEdges(t *testing.T) {
	fl := ir.Flatten(mod(t, sample))
	cfg := embed.CFGFlat(fl)
	cdfg := embed.CDFGFlat(fl)
	if len(cdfg.Edges) <= len(cfg.Edges) {
		t.Fatal("cdfg should add data edges over cfg")
	}
	hasData := false
	for _, et := range cdfg.EdgeTypes {
		if et == embed.DataEdge {
			hasData = true
		}
	}
	if !hasData {
		t.Fatal("cdfg has no data edges")
	}
}

func TestCDFGPlusHasCallEdges(t *testing.T) {
	g := embed.CDFGPlusFlat(ir.Flatten(mod(t, sample)))
	hasCall := false
	for _, et := range g.EdgeTypes {
		if et == embed.CallEdge {
			hasCall = true
		}
	}
	if !hasCall {
		t.Fatal("cdfg_plus has no call edges despite a direct call in the program")
	}
}

func TestProGraMLHasValueNodes(t *testing.T) {
	fl := ir.Flatten(mod(t, sample))
	instrGraph := embed.CDFGFlat(fl)
	g := embed.ProGraMLFlat(fl)
	if g.NumNodes() <= instrGraph.NumNodes() {
		t.Fatal("programl should add value nodes beyond instruction nodes")
	}
	if g.FeatDim() != int(ir.NumOpcodes)+3 {
		t.Fatalf("programl feature dim %d, want %d", g.FeatDim(), int(ir.NumOpcodes)+3)
	}
}

func TestObfuscationMovesHistogram(t *testing.T) {
	m1 := mod(t, sample)
	m2 := mod(t, sample)
	if err := obfus.Apply(m2, "ollvm", rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	d := embed.Distance(embed.HistogramFlat(ir.Flatten(m1)), embed.HistogramFlat(ir.Flatten(m2)))
	if d == 0 {
		t.Fatal("ollvm left the histogram unchanged")
	}
}

// Property: Distance is a metric-ish — symmetric, zero on identity,
// non-negative (checked with testing/quick on random vectors).
func TestDistanceProperties(t *testing.T) {
	symm := func(a, b []float64) bool {
		return embed.Distance(a, b) == embed.Distance(b, a)
	}
	if err := quick.Check(symm, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	selfZero := func(a []float64) bool {
		return embed.Distance(a, a) == 0
	}
	if err := quick.Check(selfZero, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	nonNeg := func(a, b []float64) bool {
		return embed.Distance(a, b) >= 0
	}
	if err := quick.Check(nonNeg, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDistanceHandlesLengthMismatch(t *testing.T) {
	a := embed.Vector{3, 4}
	b := embed.Vector{3}
	if got := embed.Distance(a, b); got != 4 {
		t.Fatalf("distance = %v, want 4", got)
	}
}

func TestMilepostCapturesLoops(t *testing.T) {
	loopy := mod(t, `int main() { int s=0; for (int i=0;i<9;i++) for (int j=0;j<9;j++) s+=i*j; return s; }`)
	straight := mod(t, `int main() { return 1+2+3; }`)
	vl := embed.MilepostFlat(ir.Flatten(loopy))
	vs := embed.MilepostFlat(ir.Flatten(straight))
	if vl[13] <= vs[13] { // feature 13 = number of natural loops
		t.Fatalf("milepost loop count: loopy %v <= straight %v", vl[13], vs[13])
	}
}
