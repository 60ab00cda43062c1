package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForWorkers pins the worker policy: n <= 0 calls nothing, workers <= 0
// means GOMAXPROCS, the count is clamped to n, and every index runs exactly
// once. The first want calls wait for one another, so a pool smaller than
// want times out, and the peak number of calls in flight shows a pool
// larger than want.
func TestForWorkers(t *testing.T) {
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
				mu              sync.Mutex
				entered, inside int
				peak            int
				seen            = make([]bool, max(tc.n, 0))
				release         = make(chan struct{})
			)
			err := For(tc.n, tc.workers, func(i int) error {
				mu.Lock()
				if seen[i] {
					mu.Unlock()
					return fmt.Errorf("index %d ran twice", i)
				}
				seen[i] = true
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
			if err != nil {
				t.Fatal(err)
			}
			if entered != max(tc.n, 0) {
				t.Fatalf("ran %d indices, want %d", entered, max(tc.n, 0))
			}
			if peak != tc.want {
				t.Fatalf("%d calls ran at once, want %d", peak, tc.want)
			}
		})
	}
}

// ml calls For once per minibatch, so its cost must not grow with n.
func TestForAllocsIndependentOfN(t *testing.T) {
	fn := func(int) error { return nil }
	small := testing.AllocsPerRun(20, func() { _ = For(16, 2, fn) })
	large := testing.AllocsPerRun(20, func() { _ = For(1<<14, 2, fn) })
	if large > small+1 {
		t.Fatalf("For allocates %.1f objects at n=16384, %.1f at n=16", large, small)
	}
}

// TestForFirstErrorInIndexOrder: when several indices fail, For reports the
// lowest one's error, not the first to finish, and still runs every index.
func TestForFirstErrorInIndexOrder(t *testing.T) {
	errA := errors.New("index 2 failed")
	errB := errors.New("index 6 failed")
	for _, workers := range []int{1, 2} {
		var calls atomic.Int64
		started7 := make(chan struct{})
		err := For(8, workers, func(i int) error {
			calls.Add(1)
			switch i {
			case 2:
				if workers > 1 {
					// Fail last: the other worker records index 6's error
					// before it claims index 7.
					select {
					case <-started7:
					case <-time.After(10 * time.Second):
						t.Error("index 7 never started")
					}
				}
				return errA
			case 6:
				return errB
			case 7:
				close(started7)
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got %v, want the lowest index's error", workers, err)
		}
		if calls.Load() != 8 {
			t.Fatalf("workers=%d: ran %d indices, want 8", workers, calls.Load())
		}
	}
}
