package main

import (
	"encoding/json"
	"net/http"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the function must sort
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		wantQ float64
		wantV float64
	}{
		{10000, 0.999, 9990}, // exactly ten beyond p99.9
		{9999, 0.99, 9900},   // p99.9 would leave nine
		{1000, 0.99, 990},
		{999, 0.9, 900},
		{100, 0.9, 90},
		{99, 0.5, 50},
		{20, 0.5, 10},
		{19, 1, 19}, // nothing qualifies: the maximum
		{1, 1, 1},
	}
	for _, c := range cases {
		q, v := tailPercentile(seq(c.n))
		if q != c.wantQ || v != c.wantV {
			t.Errorf("n=%d: got %s=%v, want %s=%v", c.n, percentileLabel(q), v, percentileLabel(c.wantQ), c.wantV)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
}

func TestGoodputCountsSuccessesWithinLimit(t *testing.T) {
	ms := time.Millisecond
	lat := []time.Duration{10 * ms, 300 * ms, 100 * ms, 250 * ms}
	ok := []bool{true, true, false, true}
	// 10 ms and 250 ms succeed within the limit; 300 ms is late and the
	// 100 ms one failed.
	if got := goodput(lat, ok, 250*ms, 2*time.Second); got != 1 {
		t.Errorf("goodput = %v, want 1/s", got)
	}
	if got := goodput(lat, ok, 250*ms, 0); got != 0 {
		t.Errorf("empty span: %v", got)
	}
}

func TestSummariseCountsFailuresAsMissingTheLimit(t *testing.T) {
	ms := time.Millisecond
	outs := []outcome{
		{status: http.StatusOK, latency: 2 * ms},
		{status: http.StatusTooManyRequests, latency: 1 * ms},
		{status: http.StatusGatewayTimeout, latency: 3 * ms},
		{status: 0, err: os.ErrDeadlineExceeded, latency: 1 * ms},
	}
	ps := summarise("x", make([]request, len(outs)), outs, time.Second)
	if ps.sent != 4 || ps.ok != 1 || ps.failed != 3 || ps.n429 != 1 || ps.n504 != 1 || ps.transport != 1 {
		t.Fatalf("counts: %+v", ps)
	}
	if ps.goodput != 1 {
		t.Errorf("goodput = %v, want 1/s", ps.goodput)
	}
	// Three of four requests failed, so the median sits at the limit.
	if want := float64(latencyLimit / ms); ps.p50 != want {
		t.Errorf("p50 = %v, want %v", ps.p50, want)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists in
// step with the metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}
