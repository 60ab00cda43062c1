package progcache

import (
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
)

const testSrc = `
int main() {
	int s = 0;
	for (int i = 0; i < 10; i++) s += i * i;
	return s;
}`

// cloneOracle is the reference every thawed copy is held to: a deep clone
// of a fresh, uncached compile of src.
func cloneOracle(t *testing.T, src, name string) *ir.Module {
	t.Helper()
	m, err := minic.CompileSource(src, name)
	if err != nil {
		t.Fatal(err)
	}
	return m.Clone()
}

func TestCompileHitsAndMisses(t *testing.T) {
	Reset()
	m1, err := CompileThaw(testSrc, "a")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := CompileThaw(testSrc, "b")
	if err != nil {
		t.Fatal(err)
	}
	st := Snapshot()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("want 1 miss + 1 hit, got %+v", st)
	}
	if st.Entries != 1 {
		t.Fatalf("want 1 entry, got %d", st.Entries)
	}
	if m1 == m2 {
		t.Fatal("CompileThaw returned the same module twice; copies must be private")
	}
	if m1.Name != "a" || m2.Name != "b" {
		t.Fatalf("copy names not applied: %q / %q", m1.Name, m2.Name)
	}
}

func TestErrorCachedOnce(t *testing.T) {
	Reset()
	bad := "int main() { return x_undefined; }"
	if _, err := CompileThaw(bad, "bad"); err == nil {
		t.Fatal("expected a compile error")
	}
	if _, err := CompileThaw(bad, "bad"); err == nil {
		t.Fatal("expected the cached compile error")
	}
	st := Snapshot()
	if st.Misses != 1 {
		t.Fatalf("failed compile should be attempted once, got %d misses", st.Misses)
	}
}

func TestDisabledBypassesCache(t *testing.T) {
	Reset()
	SetEnabled(false)
	defer SetEnabled(true)
	m, err := CompileThaw(testSrc, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if m.String() != cloneOracle(t, testSrc, "x").String() {
		t.Fatal("uncached CompileThaw diverged from a fresh compile")
	}
	if _, err := CompileShared(testSrc, "y"); err != nil {
		t.Fatal(err)
	}
	st := Snapshot()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 || st.ThawHits != 0 {
		t.Fatalf("disabled cache should stay empty and never thaw, got %+v", st)
	}
}

func TestCompileThawMatchesClone(t *testing.T) {
	Reset()
	cl := cloneOracle(t, testSrc, "m")
	th, err := CompileThaw(testSrc, "m")
	if err != nil {
		t.Fatal(err)
	}
	if th.String() != cl.String() {
		t.Fatalf("thawed copy prints differently from clone:\n--- clone ---\n%s\n--- thaw ---\n%s", cl, th)
	}
	if err := th.Verify(); err != nil {
		t.Fatalf("thawed copy fails verification: %v", err)
	}
	st := Snapshot()
	if st.ThawHits != 1 {
		t.Fatalf("want 1 thaw hit, got %+v", st)
	}
	if st.FlatMisses != 1 {
		t.Fatalf("thaw should have built the flat view once, got %+v", st)
	}
	if st.ThawTime <= 0 {
		t.Fatal("thaw timer did not advance")
	}
}

func TestCompileThawIsolation(t *testing.T) {
	Reset()
	shared, err := CompileShared(testSrc, "s")
	if err != nil {
		t.Fatal(err)
	}
	before := shared.String()
	th, err := CompileThaw(testSrc, "c")
	if err != nil {
		t.Fatal(err)
	}
	th.Functions[0].Blocks = nil
	th.Name = "wrecked"
	if got := shared.String(); got != before {
		t.Fatal("mutating a CompileThaw copy changed the shared master")
	}
	// The cached flat view must be reusable after the vandalism too.
	th2, err := CompileThaw(testSrc, "s")
	if err != nil {
		t.Fatal(err)
	}
	if got := th2.String(); got != before {
		t.Fatal("mutating a CompileThaw copy corrupted the cached flat view")
	}
}

func TestConcurrentSingleflight(t *testing.T) {
	Reset()
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := CompileThaw(testSrc, "p"); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := Snapshot(); st.Misses != 1 {
		t.Fatalf("concurrent compiles of one source should miss once, got %d", st.Misses)
	}
}
