package ml_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/embed"
	"repro/internal/ml"
)

// benchVecData is a fixed blobs problem at the histogram embedding's shape
// (63 features), the dominant vector workload of the arena.
func benchVecData(b *testing.B) ([][]float64, []int, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	Xtr, ytr, Xte, _ := synthBlobs(rng, 256, 128, 63, 8, 2.0)
	return Xtr, ytr, Xte
}

// benchWorkers runs fn once at GOMAXPROCS 1, a single training worker (the
// apples-to-apples number against the old per-sample implementation), and
// once with all cores. Training results are byte-identical either way.
func benchWorkers(b *testing.B, fn func(b *testing.B)) {
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", runtime.GOMAXPROCS(0)}} {
		b.Run(cfg.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.workers))
			b.ReportAllocs()
			b.ResetTimer()
			fn(b)
		})
	}
}

// BenchmarkFitMLP measures one full MLP training run.
func BenchmarkFitMLP(b *testing.B) {
	X, y, _ := benchVecData(b)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := ml.NewMLP(100, rand.New(rand.NewSource(7)))
			m.Epochs = 10
			if err := m.Fit(X, y, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFitCNN measures one 1-D CNN training run.
func BenchmarkFitCNN(b *testing.B) {
	X, y, _ := benchVecData(b)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := ml.NewCNN(rand.New(rand.NewSource(7)))
			m.Epochs = 5
			if err := m.Fit(X, y, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFitDGCNN measures one DGCNN training run over synthetic graphs.
func BenchmarkFitDGCNN(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	gs, ys := synthGraphs(rng, 64)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := ml.NewDGCNN(rand.New(rand.NewSource(4)))
			m.Epochs = 5
			if err := m.FitGraphs(gs, ys, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFitLogistic measures full-batch logistic regression training.
func BenchmarkFitLogistic(b *testing.B) {
	X, y, _ := benchVecData(b)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := ml.NewLogistic(rand.New(rand.NewSource(7)))
			m.Epochs = 50
			if err := m.Fit(X, y, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFitSVM measures Pegasos SVM training (inherently sequential, so
// only the kernel rewiring shows up here).
func BenchmarkFitSVM(b *testing.B) {
	X, y, _ := benchVecData(b)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := ml.NewSVM(rand.New(rand.NewSource(7)))
		m.Epochs = 20
		if err := m.Fit(X, y, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatch measures inference over a held-out batch for each
// vector model (the test-set loop of core.RunGame).
func BenchmarkPredictBatch(b *testing.B) {
	X, y, Xte := benchVecData(b)
	for _, name := range ml.VectorNames() {
		m, err := ml.New(name, rand.New(rand.NewSource(7)))
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Fit(X, y, 8); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, x := range Xte {
					m.Predict(x)
				}
			}
		})
	}
}

// BenchmarkPredictGraphBatch measures DGCNN inference over held-out graphs.
func BenchmarkPredictGraphBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	gs, ys := synthGraphs(rng, 64)
	gte, _ := synthGraphs(rng, 32)
	m := ml.NewDGCNN(rand.New(rand.NewSource(4)))
	m.Epochs = 5
	if err := m.FitGraphs(gs, ys, 2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gte {
			m.PredictGraph(g)
		}
	}
}

var _ = embed.ControlEdge // keep the import stable across bench revisions
