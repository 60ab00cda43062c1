package main

import "testing"

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "bench.root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "ml.fit", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "ml.predict", Start: 30, End: 60}, // overlaps span 1
		{ID: 3, Parent: 0, Name: "embed.vec", Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 1, Name: "passes.optimize", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	// The root's children cover [10,60] and [90,100]: 60 of its 100.
	want := []int64{40, 20, 30, 30, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	byLayer := layerSelf(spans)
	if byLayer["ml"] != 50 || byLayer["bench"] != 40 || byLayer["passes"] != 10 || byLayer["embed"] != 30 {
		t.Errorf("by layer: %v", byLayer)
	}
}

func TestTracerNestsAndNilRecordsNothing(t *testing.T) {
	tr := newTracer()
	tr.do("a.outer", func() {
		tr.do("b.inner", func() {})
	})
	tr.do("c.next", func() {})
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != -1 {
		t.Fatalf("spans: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	var nilTracer *tracer
	ran := false
	nilTracer.do("x", func() { ran = true })
	if !ran {
		t.Error("nil tracer did not run the function")
	}
}

func TestDescendantsSkipsSubtrees(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "bench.gen1"},
		{ID: 1, Parent: 0, Name: "srcobf.evolve"},
		{ID: 2, Parent: 0, Name: "bench.probe"},
		{ID: 3, Parent: 2, Name: "minic.parse"},
		{ID: 4, Parent: -1, Name: "bench.gen2"},
	}
	if got := descendants(spans, spans[0], ""); len(got) != 4 {
		t.Errorf("all: %d spans", len(got))
	}
	if got := descendants(spans, spans[0], "bench.probe"); len(got) != 2 {
		t.Errorf("skipping probes: %d spans", len(got))
	}
}
