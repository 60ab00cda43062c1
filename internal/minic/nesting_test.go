package minic_test

import (
	"strings"
	"testing"

	"repro/internal/minic"
)

// TestParseBoundsNesting: every construct that nests parses at a depth real
// programs reach, and at ~800 KB (what a /v1/classify body can carry) fails
// with a parse error instead of growing the goroutine stack toward the
// runtime's fatal 1 GB limit.
func TestParseBoundsNesting(t *testing.T) {
	const deepBytes = 800 << 10
	cases := []struct {
		name        string
		open, close string // one nesting level
		leaf        string
		stmt        bool // nest statements in main's body, not the returned expression
	}{
		{"parentheses", "(", ")", "1", false},
		{"unary minus", "- ", "", "1", false},
		{"logical not", "!", "", "1", false},
		{"casts", "(int)", "", "1", false},
		{"assignments", "x = ", "", "1", false},
		{"ternary then", "1 ? ", " : 1", "1", false},
		{"ternary else", "1 ? 1 : ", "", "1", false},
		{"binary operators", "1 + ", "", "1", false},
		{"blocks", "{", "}", ";", true},
		{"if", "if (1) ", "", ";", true},
		{"else if", "if (0) ; else ", "", ";", true},
		{"while", "while (0) ", "", ";", true},
	}
	for _, tc := range cases {
		nest := func(levels int) string {
			body := strings.Repeat(tc.open, levels) + tc.leaf + strings.Repeat(tc.close, levels)
			if tc.stmt {
				return "int main() { int x = 0; " + body + " return x; }"
			}
			return "int main() { int x = 0; return " + body + "; }"
		}
		t.Run(tc.name, func(t *testing.T) {
			if _, err := minic.Parse(nest(100)); err != nil {
				t.Fatalf("100 levels: %v", err)
			}
			src := nest(deepBytes / len(tc.open+tc.close))
			if _, err := minic.Parse(src); err == nil || !strings.Contains(err.Error(), "nesting") {
				t.Fatalf("%d-byte body: got %v, want a nesting error", len(src), err)
			}
		})
	}
}
