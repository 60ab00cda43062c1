package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// its own calls into the program's public functions. Start and End are
// nanoseconds since the tracer was created; Parent is the ID of the
// enclosing span, or -1 at top level.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Layer is the span name up to its first dot ("minic.parse" -> "minic").
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Dur is the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for one replay. It is used from a single
// goroutine: the open spans form a stack, and a new span's parent is the
// innermost open one. A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []Span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) {
	end := t.begin(name)
	fn()
	end()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap one another
// (concurrent work under one parent); covered time is their union, clipped
// to the parent, so overlap is never subtracted twice.
func selfTimes(spans []Span) []int64 {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.Dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent Span, children []Span) int64 {
	if len(children) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	started := false
	for _, v := range ivs {
		if !started || v.a > curB {
			if started {
				total += curB - curA
			}
			curA, curB, started = v.a, v.b, true
			continue
		}
		curB = max(curB, v.b)
	}
	if started {
		total += curB - curA
	}
	return total
}

// layerSelf sums self time per layer, in nanoseconds.
func layerSelf(spans []Span) map[string]int64 {
	return layerSelfIn(selfTimes(spans), spans)
}

// layerSelfIn sums per layer the self times of the spans in subset, where
// self holds every span's self time indexed by ID (from selfTimes over the
// whole trace, so a span's children count even when subset leaves them out).
func layerSelfIn(self []int64, subset []Span) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range subset {
		out[s.Layer()] += self[s.ID]
	}
	return out
}

// spanTotals sums the full duration and count of every span with the given
// name.
func spanTotals(spans []Span, name string) (total time.Duration, n int) {
	for _, s := range spans {
		if s.Name == name {
			total += time.Duration(s.Dur())
			n++
		}
	}
	return total, n
}

// writeSpans writes the spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable renders per-layer self time, largest first, with each layer's
// share of the summed self time (which equals the top-level spans' total).
func selfTable(title string, byLayer map[string]int64) string {
	var total int64
	for _, v := range byLayer {
		total += v
	}
	names := sortedLayers(byLayer)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: layer self time (total %.3f s)\n", title, float64(total)/1e9)
	for _, n := range names {
		fmt.Fprintf(&b, "#   %-10s %10.3f ms  %5.1f%%\n", n, float64(byLayer[n])/1e6, 100*ratio(float64(byLayer[n]), float64(total)))
	}
	return b.String()
}

// sortedLayers returns the layer names by descending self time.
func sortedLayers(byLayer map[string]int64) []string {
	names := make([]string, 0, len(byLayer))
	for n := range byLayer {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if byLayer[names[i]] != byLayer[names[j]] {
			return byLayer[names[i]] > byLayer[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
