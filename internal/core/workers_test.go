package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/stats"
)

// TestClampWorkers pins the pool size the game's fan-outs get from par.For
// (RunRoundsN's workers argument; 0 for featurisation and prediction): no
// work runs nothing, workers <= 0 means GOMAXPROCS, and the count is clamped
// to n. The first want calls wait for one another, so a smaller pool times
// out, and the peak number of calls in flight shows a larger one.
func TestClampWorkers(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name       string
		workers, n int
		want       int
	}{
		{"no work", 8, 0, 0},
		{"negative work", 8, -1, 0},
		{"no work no workers", 0, 0, 0},
		{"default workers clamp to n", 0, 2, min(maxprocs, 2)},
		{"negative workers clamp to n", -3, 2, min(maxprocs, 2)},
		{"more workers than work", 10, 3, 3},
		{"exact fit", 4, 4, 4},
		{"fewer workers than work", 2, 9, 2},
		{"single worker", 1, 100, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu                    sync.Mutex
				entered, inside, peak int
				release               = make(chan struct{})
			)
			_ = par.For(tc.n, tc.workers, func(i int) error {
				mu.Lock()
				entered++
				inside++
				peak = max(peak, inside)
				if entered == tc.want {
					close(release)
				}
				mu.Unlock()
				select {
				case <-release:
				case <-time.After(10 * time.Second):
					t.Errorf("index %d: fewer than %d calls ever ran at once", i, tc.want)
				}
				mu.Lock()
				inside--
				mu.Unlock()
				return nil
			})
			if peak != tc.want {
				t.Fatalf("For(%d, %d): %d calls ran at once, want %d", tc.n, tc.workers, peak, tc.want)
			}
		})
	}
}

// Prediction over an empty test batch must not call the model.
func TestPredictAllEmpty(t *testing.T) {
	_ = par.For(0, 0, func(i int) error {
		t.Fatalf("predict called for empty batch (i=%d)", i)
		return nil
	})
}

// RunRoundsN must reject rounds < 1 up front instead of indexing into an
// empty result slice (the old `arena game0 -rounds 0` panic).
func TestRunRoundsNRejectsZeroRounds(t *testing.T) {
	for _, rounds := range []int{0, -1} {
		_, sum, err := RunRoundsN(nil, GameConfig{}, rounds, 4)
		if err == nil {
			t.Fatalf("RunRoundsN(rounds=%d) did not error", rounds)
		}
		if sum != (stats.Summary{}) {
			t.Fatalf("RunRoundsN(rounds=%d) returned a non-zero summary on error", rounds)
		}
	}
}
