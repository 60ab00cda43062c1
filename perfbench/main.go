// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload against the code as it stands, with every server,
// gateway, cache, engine and arena knob at its default, checks the
// workload's outputs, and prints the metrics as the last line of standard
// output in one JSON object:
//
//	perfbench --workload game-rounds --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//	game-rounds    a fixed matrix of core.RunRoundsN cells (paper-figure shape)
//	coevo-arena    one coevo.Run past the generation where members blow up
//	serve-mix      open-loop HTTP load through a gateway and two replicas
//	fig13-speedup  core.Speedup over the 16 Benchmark-Game kernels
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
// replays the workload through the layers' public functions, keeps spans in
// memory, writes them to .bench_build/trace/ and reports the per-layer
// metrics and each layer's self time. Everything is measured from outside:
// the benchmark times its own calls and reads deltas of the obs registry.
//
// The process exits 1 when an output check or a replay-fidelity check
// fails, and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics every workload reports with --trace 0. Each
// workload has one repeated operation: a pass over the game-rounds cell
// matrix, one arena run, one served request, one core.Speedup call.
var endToEnd = []metricDef{
	{"setup_s", "s"},         // median of several set-ups in the run
	{"latency_ms_p50", "ms"}, // median operation time (serve-mix: light phase, from due time)
	{"ops_per_s", "1/s"},     // rounds, generations, kernel runs, or closed-loop requests per second
	{"alloc_mb", "MB"},       // heap bytes allocated per operation
	{"rss_mb", "MB"},         // median resident memory while the operations run
}

// perLayer are the metrics every workload reports with --trace 1. A layer
// that a workload does not exercise reports 0. "_ms" times are the total
// time busy in that call over the traced replay; "_us" times are per call.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"minic.parse_ms", "ms"},
		{"minic.codegen_ms", "ms"},
		{"srcobf.transform_ms", "ms"},
		{"srcobf.evolve_ms", "ms"},
	}
	for g := 1; g <= coevoGenerations; g++ {
		defs = append(defs,
			metricDef{fmt.Sprintf("srcobf.evolve_ms.g%d", g), "ms"},
			metricDef{fmt.Sprintf("srcobf.genome_len_max.g%d", g), "count"},
			metricDef{fmt.Sprintf("srcobf.member_instrs_max.g%d", g), "count"})
	}
	defs = append(defs,
		metricDef{"progcache.hit_ratio", "ratio"},
		metricDef{"progcache.compile_ms", "ms"},
		metricDef{"progcache.thaw_ms", "ms"},
		metricDef{"progcache.flatten_ms", "ms"},
		metricDef{"progcache.untrusted.hit_ratio", "ratio"},
		metricDef{"progcache.untrusted.evictions", "count"},
		metricDef{"ir.verify_ms", "ms"},
		metricDef{"passes.optimize_ms", "ms"},
		metricDef{"passes.instrs_ratio", "ratio"},
		metricDef{"obfus.apply_ms", "ms"},
		metricDef{"obfus.instrs_growth", "ratio"},
		metricDef{"embed.vec_us", "us"},
		metricDef{"embed.graph_us", "us"},
		metricDef{"ml.fit_ms.rf", "ms"},
		metricDef{"ml.fit_ms.cnn", "ms"},
		metricDef{"ml.fit_ms.dgcnn", "ms"},
		metricDef{"ml.predict_us", "us"},
		metricDef{"linalg.gemm_calls", "count"},
		metricDef{"interp.run_ms", "ms"},
		metricDef{"interp.steps_per_s", "1/s"},
		metricDef{"interp.engine_share", "ratio"},
		metricDef{"core.featurize_share", "ratio"},
		metricDef{"core.train_share", "ratio"},
		metricDef{"coevo.retrain_ms", "ms"},
		metricDef{"serve.batch_size_mean", "count"},
		metricDef{"serve.compute_ms", "ms"},
		metricDef{"serve.hop_ms", "ms"},
		metricDef{"gateway.hop_ms", "ms"},
		metricDef{"gateway.hedges_per_req", "ratio"},
		metricDef{"gateway.retries_per_req", "ratio"},
		metricDef{"gateway.useful_ratio", "ratio"},
		metricDef{"gen.late_ms_p99", "ms"},
		metricDef{"trace.overhead_s", "s"},
	)
	for _, l := range traceLayers {
		defs = append(defs, metricDef{"self_ms." + l, "ms"})
	}
	return defs
}()

// traceLayers are the layers whose self time every traced run reports:
// the program's modules as named in internal/, plus "bench" for the
// benchmark's own work between layer calls and "http" for the client side
// of a served request.
var traceLayers = []string{
	"minic", "srcobf", "progcache", "ir", "passes", "obfus", "embed", "ml",
	"interp", "coevo", "serve", "http", "bench",
}

// setupReps is how many times an end-to-end run sets its workload up;
// setup_s is the median. The fig13-speedup and coevo-arena set-ups take
// about 4 ms, so a median of 11 still moved by a fifth between runs on a
// 2-core Intel Xeon host; 31 costs game-rounds, the slowest, about 1 s.
// (serve-mix, whose set-up builds a whole fleet, uses smSetupReps.)
const setupReps = 31

// runCtx is what one workload run receives.
type runCtx struct {
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // checkout root (traces are written under .bench_build)
	workers int    // client worker goroutines and connections: nproc
}

// report is what one workload run produces.
type report struct {
	attempted, failed int
	problems          []string           // failed checks; any makes the run incorrect
	metrics           map[string]float64 // end-to-end or per-layer, by mode
	notes             []string           // human-readable lines printed before the result
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*runCtx) (*report, error){
	"game-rounds":   runGameRounds,
	"coevo-arena":   runCoevoArena,
	"serve-mix":     runServeMix,
	"fig13-speedup": runFig13,
}

func main() {
	workload := flag.String("workload", "", "workload name: game-rounds, coevo-arena, serve-mix or fig13-speedup")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	root := flag.String("root", ".", "checkout root")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	ctx := &runCtx{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		root:    *root,
		workers: runtime.NumCPU(),
	}
	fmt.Println(header(ctx, *workload))
	rep, err := run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(2)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	defs := endToEnd
	if ctx.trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   len(rep.problems) == 0,
		Attempted: max(rep.attempted, 1),
		Failed:    rep.failed,
		Metrics:   make(map[string]map[string]any, len(defs)),
	}
	for _, d := range defs {
		v := rep.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("# metric %-36s %14.6g %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	for _, p := range rep.problems {
		fmt.Println("# CHECK FAILED:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// header describes the run: host CPU model, nproc, GOMAXPROCS, Go version,
// the commit (when the checkout is a git work tree), a digest of the
// program's sources, the workload and its seed.
func header(ctx *runCtx, workload string) string {
	return fmt.Sprintf("# perfbench workload=%s seed=%d seconds=%d trace=%t cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s src=%s",
		workload, ctx.seed, int(ctx.seconds/time.Second), ctx.trace, cpuModel(), runtime.NumCPU(),
		runtime.GOMAXPROCS(0), runtime.Version(), commitOf(ctx.root), sourceDigest(ctx.root))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitOf resolves HEAD of a git work tree at root by reading .git
// directly, or returns "none" (a bare source checkout has no .git).
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	name, isRef := strings.CutPrefix(ref, "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, r, ok := strings.Cut(line, " "); ok && r == name {
			return id
		}
	}
	return "none"
}

// sourceDigest hashes go.mod and every Go file under internal/ and cmd/, so
// runs of the same program can be matched without git.
func sourceDigest(root string) string {
	var files []string
	for _, dir := range []string{"internal", "cmd"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	files = append([]string{filepath.Join(root, "go.mod")}, files...)
	h := newDigest()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.add(filepath.ToSlash(rel), data)
	}
	return h.hex()[:16]
}
