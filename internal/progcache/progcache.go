// Package progcache is a process-wide compile-once cache for MiniC
// sources. Every experiment in the harness replays the same dataset
// sources across rounds, games, embeddings and models; the front end is
// deterministic, so the O0 compile of a given source is an immutable
// artifact that can be compiled once and reused everywhere (the same move
// as a compiler's module cache). Consumers that go on to mutate the module
// with passes or obfuscations receive a private copy thawed from the
// master's flat view (CompileThaw); read-only consumers can share the
// master directly.
//
// Alongside each master module the cache lazily materializes its
// struct-of-arrays view (ir.Flatten), built at most once per entry and
// shared by every CompileFlat caller: the embedding pipeline, distance
// analyses, antivirus scoring and the bytecode compiler all walk the same
// immutable flat tables with zero per-call cloning or indexing.
package progcache

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/obs"
)

// entry is one cache slot. The sync.Onces serialize the first compile of a
// source and the first flatten of its master (singleflight) without
// holding any global lock. The flat view is invalidated with the entry —
// it lives and dies with the master module it indexes.
type entry struct {
	once sync.Once
	mod  *ir.Module
	err  error
	// ready flips once the compile in once.Do has finished, so the
	// untrusted tier can peek at settled entries without touching the Once
	// (a no-op Do would race the storing goroutine's real Do and could mark
	// the entry done before it ever compiled).
	ready atomic.Bool

	flatOnce sync.Once
	flat     *ir.Flat
}

// The cache counters live in the process-wide obs registry ("progcache.*"),
// so run manifests and the -debug-addr expvar endpoint see them without
// this package knowing about either; Snapshot keeps serving the historical
// struct view over the same metrics.
var (
	cache   sync.Map // source string -> *entry
	enabled atomic.Bool

	hits         = obs.GetCounter("progcache.hits")
	misses       = obs.GetCounter("progcache.misses")
	entries      = obs.GetGauge("progcache.entries")
	compileTimer = obs.GetTimer("progcache.compile")
	flatHits     = obs.GetCounter("progcache.flat.hits")
	flatMisses   = obs.GetCounter("progcache.flat.misses")
	flattenTimer = obs.GetTimer("progcache.flatten")
	thawHits     = obs.GetCounter("progcache.thaw.hits")
	thawTimer    = obs.GetTimer("progcache.thaw")
)

func init() {
	enabled.Store(true)
}

// SetEnabled toggles the cache globally (tests use this to compare cached
// against uncached runs). Disabling does not drop existing entries; use
// Reset for that.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether the cache is active.
func Enabled() bool { return enabled.Load() }

// Reset drops every cached module (and with it every cached flat view),
// empties the untrusted tier and zeroes the counters.
func Reset() {
	cache.Range(func(k, _ any) bool { cache.Delete(k); return true })
	entries.Set(0)
	ResetUntrusted()
	ResetStats()
}

// ResetStats zeroes the hit/miss/timing counters without dropping entries.
func ResetStats() {
	hits.Reset()
	misses.Reset()
	compileTimer.Reset()
	flatHits.Reset()
	flatMisses.Reset()
	flattenTimer.Reset()
	thawHits.Reset()
	thawTimer.Reset()
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits, Misses, Entries int64
	// FlatHits/FlatMisses count CompileFlat calls served from an existing
	// flat view vs. ones that built it.
	FlatHits, FlatMisses int64
	// ThawHits counts mutable copies served by rebuilding a module from a
	// cached flat view.
	ThawHits int64
	// The Untrusted* fields mirror the bounded LRU tier that serves
	// wire-originated compiles (see untrusted.go).
	UntrustedHits, UntrustedMisses     int64
	UntrustedEntries, UntrustedEvicted int64
	// CompileTime is the total front-end time spent on cache misses;
	// FlattenTime is the total time spent building struct-of-arrays views
	// on flat misses; ThawTime is the total time spent rebuilding mutable
	// modules from cached flat views.
	CompileTime time.Duration
	FlattenTime time.Duration
	ThawTime    time.Duration
}

// Snapshot returns the current counters.
func Snapshot() Stats {
	n := int64(0)
	cache.Range(func(_, _ any) bool { n++; return true })
	return Stats{
		Hits:             hits.Value(),
		Misses:           misses.Value(),
		Entries:          n,
		FlatHits:         flatHits.Value(),
		FlatMisses:       flatMisses.Value(),
		ThawHits:         thawHits.Value(),
		UntrustedHits:    utHits.Value(),
		UntrustedMisses:  utMisses.Value(),
		UntrustedEntries: utEntries.Value(),
		UntrustedEvicted: utEvictions.Value(),
		CompileTime:      compileTimer.Total(),
		FlattenTime:      flattenTimer.Total(),
		ThawTime:         thawTimer.Total(),
	}
}

// lookupEntry returns the cache slot for src with its master compiled. The
// cache is keyed by the source text alone — the module name only labels
// printed IR, so one master serves callers that name their modules
// differently.
func lookupEntry(src, name string) (*entry, error) {
	e, loaded := cache.Load(src)
	if !loaded {
		e, loaded = cache.LoadOrStore(src, &entry{})
		if !loaded {
			entries.Add(1)
		}
	}
	ent := e.(*entry)
	ent.once.Do(func() {
		misses.Inc()
		start := time.Now()
		ent.mod, ent.err = minic.CompileSource(src, name)
		compileTimer.Observe(time.Since(start))
		ent.ready.Store(true)
	})
	if loaded && ent.err == nil {
		hits.Inc()
	}
	return ent, ent.err
}

// CompileShared returns the cached master module for src. The caller MUST
// NOT mutate it (no passes, no obfuscations) — it is shared by every other
// CompileShared caller and is the source of every CompileThaw copy. Use it
// for read-only consumers: embeddings, n-gram scans, compile checks.
func CompileShared(src, name string) (*ir.Module, error) {
	if !enabled.Load() {
		return minic.CompileSource(src, name)
	}
	ent, err := lookupEntry(src, name)
	if err != nil {
		return nil, err
	}
	return ent.mod, nil
}

// CompileFlat returns the cached struct-of-arrays view of src's master
// module, flattening it on first use. Like the master itself the view is
// shared and strictly read-only; unlike CompileThaw there is nothing to
// copy — any number of embed/featurize/scan/compile consumers stream the
// same tables concurrently. With the cache disabled the module and its view
// are built fresh on every call.
func CompileFlat(src, name string) (*ir.Flat, error) {
	if !enabled.Load() {
		m, err := minic.CompileSource(src, name)
		if err != nil {
			return nil, err
		}
		flatMisses.Inc()
		start := time.Now()
		fl := ir.Flatten(m)
		flattenTimer.Observe(time.Since(start))
		return fl, nil
	}
	ent, err := lookupEntry(src, name)
	if err != nil {
		return nil, err
	}
	return entFlat(ent), nil
}

// entFlat returns the entry's flat view, flattening the master at most once
// (singleflight via flatOnce). The entry's compile must have succeeded.
func entFlat(ent *entry) *ir.Flat {
	built := false
	ent.flatOnce.Do(func() {
		built = true
		flatMisses.Inc()
		start := time.Now()
		ent.flat = ir.Flatten(ent.mod)
		flattenTimer.Observe(time.Since(start))
	})
	if !built {
		flatHits.Inc()
	}
	return ent.flat
}

// CompileThaw returns a freshly built module for src that the caller owns
// and may mutate freely. The compile happens at most once per distinct
// source for the life of the process; each copy is thawed from the cached
// flat view (ir.Thaw), which allocates the whole module out of a handful of
// arenas. Transform pipelines, fuzz campaigns and the coevo generation loop
// draw their mutable copies here; the difftest campaign pins a thawed copy
// bit-for-bit equivalent to a deep clone of the master. With the cache
// disabled every call compiles src afresh.
func CompileThaw(src, name string) (*ir.Module, error) {
	if !enabled.Load() {
		return minic.CompileSource(src, name)
	}
	ent, err := lookupEntry(src, name)
	if err != nil {
		return nil, err
	}
	return thawModule(entFlat(ent), name), nil
}
