package ml_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ml"
)

// TestFitWorkerDeterminism trains every gradient-sharded model at
// GOMAXPROCS 1, 4 and 8 (the training worker count) and demands
// byte-identical weights: the shard structure fixes the float summation
// order independently of scheduling.
func TestFitWorkerDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(31))
	X, y, _, _ := synthBlobs(rng, 90, 0, 17, 4, 2.0)

	fitVec := func(name string, workers int) [][]float64 {
		runtime.GOMAXPROCS(workers)
		m, err := ml.New(name, rand.New(rand.NewSource(6)))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(X, y, 4); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w := ml.WeightsForTest(m)
		if w == nil {
			t.Fatalf("%s: no weights exposed", name)
		}
		return w
	}

	for _, name := range []string{"mlp", "cnn", "lr", "svm"} {
		base := fitVec(name, 1)
		for _, workers := range []int{4, 8} {
			got := fitVec(name, workers)
			compareWeights(t, name, workers, base, got)
		}
	}

	gs, ys := synthGraphs(rand.New(rand.NewSource(17)), 24)
	fitGraph := func(workers int) [][]float64 {
		runtime.GOMAXPROCS(workers)
		m := ml.NewDGCNN(rand.New(rand.NewSource(6)))
		m.Epochs = 4
		if err := m.FitGraphs(gs, ys, 2); err != nil {
			t.Fatal(err)
		}
		return ml.WeightsForTest(m)
	}
	base := fitGraph(1)
	for _, workers := range []int{4, 8} {
		compareWeights(t, "dgcnn", workers, base, fitGraph(workers))
	}
}

func compareWeights(t *testing.T, name string, workers int, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: tensor count %d vs %d", name, len(want), len(got))
	}
	for ti := range want {
		for i := range want[ti] {
			if want[ti][i] != got[ti][i] {
				t.Fatalf("%s: workers=%d tensor %d idx %d: %v != %v (serial)",
					name, workers, ti, i, got[ti][i], want[ti][i])
			}
		}
	}
}

// TestKNNPruningExact checks the distance early-exit never changes a
// prediction relative to the full scan.
func TestKNNPruningExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	Xtr, ytr, Xte, _ := synthBlobs(rng, 250, 200, 24, 6, 6.0)
	m := ml.NewKNN(5)
	if err := m.Fit(Xtr, ytr, 6); err != nil {
		t.Fatal(err)
	}
	for i, x := range Xte {
		m.SetNoPruneForTest(false)
		pruned := m.Predict(x)
		m.SetNoPruneForTest(true)
		full := m.Predict(x)
		if pruned != full {
			t.Fatalf("sample %d: pruned=%d full=%d", i, pruned, full)
		}
	}
}
