package core

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ir"
	"repro/internal/minic"
)

// ngrams is the pointer-IR oracle for ngramsFlat: the opcode n-grams along
// each basic block's instruction list.
func ngrams(m *ir.Module, n int) map[string]bool {
	out := make(map[string]bool)
	buf := make([]byte, n)
	for _, f := range m.Functions {
		for _, b := range f.Blocks {
			for i := 0; i+n <= len(b.Instrs); i++ {
				for k := 0; k < n; k++ {
					buf[k] = byte(b.Instrs[i+k].Op)
				}
				out[string(buf)] = true
			}
		}
	}
	return out
}

// TestNgramsFlatMatchesPointerIR checks the scanner's flat n-gram extractor
// against the pointer-IR walk over malware and benign samples at every
// n-gram length the AV ensemble uses.
func TestNgramsFlatMatchesPointerIR(t *testing.T) {
	set, err := dataset.MalwareSet(6, 6, 41)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range set.Samples {
		m, err := minic.CompileSource(s.Source, "m")
		if err != nil {
			t.Fatal(err)
		}
		fl := ir.Flatten(m)
		for n := 3; n <= 5; n++ {
			want := ngrams(m, n)
			if len(want) == 0 {
				t.Fatalf("sample %d n=%d: no n-grams to compare", i, n)
			}
			if got := ngramsFlat(fl, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("sample %d n=%d: flat n-grams differ from the pointer walk (%d vs %d grams)",
					i, n, len(got), len(want))
			}
		}
	}
}
