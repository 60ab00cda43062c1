package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/difftest"
	"repro/internal/embed"
	"repro/internal/gateway"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/progcache"
	"repro/internal/serve"
)

// serve-mix: an in-process gateway in front of two replicas on loopback,
// driven open-loop at two fixed arrival rates and then closed-loop, from at
// most nproc client goroutines and connections.
const (
	// lightRPS and heavyRPS are about 1/5 and 1/2 of the request mix's
	// closed-loop capacity through the gateway, which the closed-loop phase
	// measured at about 505 requests/s on a 2-core Intel Xeon host. At 3/4
	// (375/s) the heavy phase fell into a growing backlog in 3 of 10 runs,
	// whenever the shared host ran a third slower; 1/2 keeps that margin.
	lightRPS = 100
	heavyRPS = 250

	// The closed-loop phase is a fixed amount of work, capBlocks blocks of
	// capBlockReqs requests, each worker sending its next request as soon
	// as the previous one answers. A faster fleet finishes it sooner, so
	// its rate (ops_per_s, the median block's) moves with the program, not
	// with the generator. It holds one hot-swap per capSwapEvery requests,
	// about one a second at the measured capacity.
	capBlocks    = 5
	capBlockReqs = 400
	capSwapEvery = 500

	smReplicas  = 2
	smSetupReps = 3   // set-ups per end-to-end run: each builds and warms a whole fleet
	smHotSet    = 16  // programs classified again and again: untrusted-tier hits
	smProbeSet  = 192 // programs the transform and execute requests draw from
	// smExecSteps bounds the O0 run of a program that execute requests may
	// use, so one request cannot hold one of the few client connections for
	// hundreds of milliseconds; the long-running kernels are fig13-speedup's.
	smExecSteps  = 50_000
	smFiller     = 512 // distinct programs that fill the tier (its default capacity) at warm-up
	smSwapEvery  = time.Second
	latencyLimit = 250 * time.Millisecond // goodput counts successes within this
	smSwapModel  = "lr"
)

// smModels are the models each replica serves (the `arena serve` default).
var smModels = []string{"rf", "lr"}

// The request mix, as cumulative shares of non-swap requests.
const (
	shareHot       = 0.30 // classify by source from the hot set
	shareFresh     = 0.60 // classify by source, never seen before
	shareTransform = 0.94 // transform with O3, ollvm or rs; the rest execute too
)

var smEvaders = []string{"O3", "ollvm", "rs"}

type reqKind int

const (
	kindHot reqKind = iota
	kindFresh
	kindTransform
	kindExecute
	kindSwap
)

var kindNames = []string{"classify-hot", "classify-fresh", "transform", "execute", "swap"}

type request struct {
	kind   reqKind
	due    time.Duration // offset from the phase start
	src    string
	evader string
	seed   int64
}

type outcome struct {
	status    int   // HTTP status; 0 on a transport error
	err       error // transport or decode error
	latency   time.Duration
	late      time.Duration // how long after its due time the request was sent
	verdicts  map[string]int
	exec      *core.ExecObs
	transform *serve.TransformResponse
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// fleet is the system under test plus the state the checks need.
type fleet struct {
	models   map[string]ml.Model // the trained models, for the in-process verdict check
	snapshot []byte              // the hot-swap payload: smSwapModel's own snapshot
	replicas []*serve.Server
	repAddrs []string
	gw       *gateway.Gateway
	gwURL    string
	hot      []string // classify-hot programs
	probe    []string // transform programs
	exec     []string // the probe programs short enough for execute requests
	fresh    []string // classify-fresh programs, each sent once
	client   *http.Client
}

func (f *fleet) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.gw != nil {
		_ = f.gw.Shutdown(ctx)
	}
	for _, r := range f.replicas {
		_ = r.Shutdown(ctx)
	}
	f.client.CloseIdleConnections()
}

// phaseSpan is how long each of the two open-loop phases lasts; the
// closed-loop phase takes about the last fifth of the run.
func phaseSpan(ctx *runCtx) time.Duration { return ctx.seconds * 2 / 5 }

// freshNeeded bounds how many never-seen programs the three phases consume.
func freshNeeded(ctx *runCtx) int {
	n := (float64(lightRPS+heavyRPS)*phaseSpan(ctx).Seconds() + capBlocks*capBlockReqs) * (shareFresh - shareHot)
	return int(n*1.5) + 32
}

// smSetup generates the training set and the request programs, trains the
// served models, starts two replicas and the gateway, fills the untrusted
// cache tier and warms the hot set and every endpoint through the gateway.
func smSetup(ctx *runCtx, workers int) (*fleet, time.Duration, error) {
	progcache.Reset()
	start := time.Now()
	train, err := dataset.Generate(4, 8, ctx.seed)
	if err != nil {
		return nil, 0, err
	}
	need := smHotSet + smProbeSet + smFiller + freshNeeded(ctx)
	pool, err := distinctPrograms(need, ctx.seed, train)
	if err != nil {
		return nil, 0, err
	}
	// Generation pins every program in the process-wide cache; drop them
	// so requests reach the untrusted tier as a client's programs would.
	progcache.Reset()
	models, err := core.TrainVectorModels(train, "histogram", smModels, ctx.seed)
	if err != nil {
		return nil, 0, err
	}
	f := &fleet{
		models: models,
		hot:    pool[:smHotSet],
		probe:  pool[smHotSet : smHotSet+smProbeSet],
		fresh:  pool[smHotSet+smProbeSet+smFiller:],
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     workers,
				MaxIdleConnsPerHost: workers,
			},
		},
	}
	// Every error below leaves servers to stop.
	started := false
	defer func() {
		if !started {
			f.shutdown()
		}
	}()
	for _, src := range f.probe {
		if short, err := runsWithin(src, smExecSteps); err != nil {
			return nil, 0, err
		} else if short {
			f.exec = append(f.exec, src)
		}
	}
	if len(f.exec) == 0 {
		return nil, 0, fmt.Errorf("no probe program runs within %d steps", smExecSteps)
	}
	snaps := make(map[string][]byte)
	for _, name := range smModels {
		var buf bytes.Buffer
		if err := ml.Save(&buf, models[name]); err != nil {
			return nil, 0, err
		}
		snaps[name] = buf.Bytes()
	}
	f.snapshot = snaps[smSwapModel]
	for i := 0; i < smReplicas; i++ {
		loaded := make(map[string]ml.Model)
		for name, data := range snaps {
			m, err := ml.Load(bytes.NewReader(data))
			if err != nil {
				return nil, 0, err
			}
			loaded[name] = m
		}
		srv, err := serve.New(serve.Config{Models: loaded})
		if err != nil {
			return nil, 0, err
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, 0, err
		}
		f.replicas = append(f.replicas, srv)
		f.repAddrs = append(f.repAddrs, "http://"+addr)
	}
	gw, err := gateway.New(gateway.Config{Replicas: f.repAddrs})
	if err != nil {
		return nil, 0, err
	}
	f.gw = gw
	addr, err := gw.Start("127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	f.gwURL = "http://" + addr
	if err := waitFleetOK(f); err != nil {
		return nil, 0, err
	}
	for _, src := range pool[smHotSet+smProbeSet : smHotSet+smProbeSet+smFiller] {
		if _, err := core.EmbedSourceUntrusted(src, "histogram"); err != nil {
			return nil, 0, err
		}
	}
	var warm []request
	for _, src := range f.hot {
		warm = append(warm, request{kind: kindHot, src: src})
	}
	for i, src := range f.probe {
		warm = append(warm, request{kind: kindTransform, src: src, evader: smEvaders[i%len(smEvaders)], seed: int64(i)})
	}
	for _, r := range warm {
		if o := f.send(r); !o.ok() {
			return nil, 0, fmt.Errorf("warm-up %s: status %d: %v", kindNames[r.kind], o.status, o.err)
		}
	}
	started = true
	return f, time.Since(start), nil
}

// distinctPrograms draws n programs that differ from each other and from
// the training set.
func distinctPrograms(n int, seed int64, train *dataset.Set) ([]string, error) {
	seen := make(map[string]bool)
	for _, s := range train.Samples {
		seen[s.Source] = true
	}
	var out []string
	for round := int64(1); len(out) < n; round++ {
		set, err := dataset.Generate(64, 16, seed*7_368_787+round)
		if err != nil {
			return nil, err
		}
		for _, s := range set.Samples {
			if !seen[s.Source] {
				seen[s.Source] = true
				out = append(out, s.Source)
			}
		}
		if round > 16 {
			return nil, fmt.Errorf("could not draw %d distinct programs", n)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:n], nil
}

// runsWithin reports whether src's O0 build finishes within maxSteps on
// the tree interpreter. It compiles outside progcache, so nothing is pinned.
func runsWithin(src string, maxSteps int64) (bool, error) {
	m, err := minic.CompileSource(src, "probe")
	if err != nil {
		return false, err
	}
	_, err = interp.Run(m, interp.Options{MaxSteps: maxSteps})
	return err == nil, nil
}

// waitFleetOK polls the gateway until it reports every replica healthy.
func waitFleetOK(f *fleet) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := f.client.Get(f.gwURL + "/healthz")
		if err == nil {
			var h gateway.HealthResponse
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && h.Status == "ok" {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("gateway at %s never reported all replicas healthy", f.gwURL)
}

// send issues one request through the gateway and decodes the answer.
func (f *fleet) send(r request) outcome {
	return f.sendTo(f.gwURL, r)
}

func (f *fleet) sendTo(base string, r request) outcome {
	var (
		method = http.MethodPost
		path   string
		body   []byte
		err    error
	)
	switch r.kind {
	case kindHot, kindFresh:
		path = "/v1/classify"
		body, err = json.Marshal(serve.ClassifyRequest{Source: r.src})
	case kindTransform, kindExecute:
		path = "/v1/transform"
		body, err = json.Marshal(serve.TransformRequest{Source: r.src, Evader: r.evader, Seed: r.seed, Execute: r.kind == kindExecute})
	case kindSwap:
		method, path, body = http.MethodPut, "/v1/models/"+smSwapModel, f.snapshot
	}
	if err != nil {
		return outcome{err: err}
	}
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	o := outcome{status: resp.StatusCode, err: err}
	if err != nil || resp.StatusCode != http.StatusOK {
		return o
	}
	switch r.kind {
	case kindHot, kindFresh:
		var cr serve.ClassifyResponse
		o.err = json.Unmarshal(data, &cr)
		o.verdicts = cr.Verdicts
	case kindTransform, kindExecute:
		var tr serve.TransformResponse
		o.err = json.Unmarshal(data, &tr)
		o.verdicts, o.exec, o.transform = tr.Verdicts, tr.Exec, &tr
	case kindSwap:
		var pr gateway.PushResponse
		o.err = json.Unmarshal(data, &pr)
	}
	return o
}

// schedule lays out n requests: due at a fixed rate, every swapEvery-th
// one a hot-swap, the rest drawn from the mix with a seeded RNG. Fresh
// programs are consumed from *fresh in order.
func schedule(rng *rand.Rand, n, rps, swapEvery int, f *fleet, fresh *[]string) ([]request, error) {
	out := make([]request, n)
	for i := range out {
		r := request{due: time.Duration(float64(i) / float64(rps) * float64(time.Second))}
		u := rng.Float64()
		switch {
		case i > 0 && i%swapEvery == 0:
			r.kind = kindSwap
		case u < shareHot:
			r.kind, r.src = kindHot, f.hot[rng.Intn(len(f.hot))]
		case u < shareFresh:
			if len(*fresh) == 0 {
				return nil, errors.New("fresh program pool exhausted")
			}
			r.kind, r.src = kindFresh, (*fresh)[0]
			*fresh = (*fresh)[1:]
		default:
			r.kind, r.src = kindTransform, f.probe[rng.Intn(len(f.probe))]
			if u >= shareTransform {
				r.kind, r.src = kindExecute, f.exec[rng.Intn(len(f.exec))]
			}
			r.evader = smEvaders[rng.Intn(len(smEvaders))]
			r.seed = rng.Int63()
		}
		out[i] = r
	}
	return out, nil
}

// drive sends the schedule from `workers` goroutines. Open-loop, each
// worker takes the next request, waits for its due time and sends it; a
// request that finds every worker busy is sent late, and its latency still
// counts from the due time. Closed-loop, due times are ignored: a worker
// sends its next request as soon as the previous one answers.
func drive(f *fleet, reqs []request, workers int, open bool) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				due := time.Now()
				if open {
					due = start.Add(reqs[i].due)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				sent := time.Now()
				o := f.send(reqs[i])
				o.late = sent.Sub(due)
				o.latency = time.Since(due)
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}

// phaseStats summarises one phase.
type phaseStats struct {
	name                                    string
	closed                                  bool // closed-loop: latency counts from the send
	sent, ok, failed, n429, n504, transport int
	p50, tail, tailQ, goodput, lateP99      float64
	kinds                                   string // per-kind count, p50 and max
}

func summarise(name string, reqs []request, outs []outcome, span time.Duration) phaseStats {
	ps := phaseStats{name: name, sent: len(outs)}
	lat := make([]time.Duration, len(outs))
	ok := make([]bool, len(outs))
	lates := make([]time.Duration, len(outs))
	for i, o := range outs {
		lat[i], ok[i], lates[i] = o.latency, o.ok(), o.late
		switch {
		case o.ok():
			ps.ok++
		case o.status == 0:
			ps.transport++
		case o.status == http.StatusTooManyRequests:
			ps.n429++
		case o.status == http.StatusGatewayTimeout:
			ps.n504++
		}
		if !o.ok() {
			ps.failed++
			// A failed request misses the latency limit whatever its time.
			lat[i] = max(lat[i], latencyLimit)
		}
	}
	ms := msOf(lat)
	ps.p50 = median(ms)
	ps.tailQ, ps.tail = tailPercentile(ms)
	ps.goodput = goodput(lat, ok, latencyLimit, span)
	ps.lateP99 = nearestRank(msOf(lates), 0.99)
	byKind := make([][]float64, len(kindNames))
	for i, r := range reqs {
		byKind[r.kind] = append(byKind[r.kind], ms[i])
	}
	for k, xs := range byKind {
		if len(xs) > 0 {
			mx := xs[0]
			for _, x := range xs {
				mx = max(mx, x)
			}
			ps.kinds += fmt.Sprintf(" %s n=%d p50=%.2f max=%.2f;", kindNames[k], len(xs), median(xs), mx)
		}
	}
	return ps
}

func (ps phaseStats) lines() []string {
	counts := fmt.Sprintf("# %s: sent %d ok %d failed %d (429 %d, 504 %d, transport %d, other %d); p50 %.2f ms, %s %.2f ms",
		ps.name, ps.sent, ps.ok, ps.failed, ps.n429, ps.n504, ps.transport, ps.failed-ps.n429-ps.n504-ps.transport,
		ps.p50, percentileLabel(ps.tailQ), ps.tail)
	if ps.closed {
		return []string{counts, fmt.Sprintf("# %s by kind (ms from send):%s", ps.name, ps.kinds)}
	}
	return []string{
		counts + fmt.Sprintf("; goodput %.2f/s; generator late p99 %.2f ms", ps.goodput, ps.lateP99),
		fmt.Sprintf("# %s by kind (ms from due time):%s", ps.name, ps.kinds),
		fmt.Sprintf("# workload-metric %s.latency_ms_p50 %.4f ms", ps.name, ps.p50),
		fmt.Sprintf("# workload-metric %s.latency_ms_p99 %.4f ms (%s: the highest percentile with ten samples beyond it)",
			ps.name, ps.tail, percentileLabel(ps.tailQ)),
	}
}

// checkOutcomes compares every classify verdict with the in-process
// model.Predict(core.EmbedSource(src)), every execute result with the
// oracle on the untransformed source, and a seeded sample of transform
// verdicts with core.TransformEmbed. It runs after the load, so its
// compiles cannot warm the caches under test.
func checkOutcomes(rep *report, f *fleet, reqs []request, outs []outcome, seed int64) {
	vecs := make(map[string]embed.Vector)
	oracles := make(map[string]difftest.Obs)
	pick := rand.New(rand.NewSource(seed ^ 0xc0ffee))
	expect := func(vec embed.Vector, got map[string]int, what string) {
		for _, name := range smModels {
			if want := f.models[name].Predict(vec); got[name] != want {
				rep.fail("%s: model %s verdict %d, in-process %d", what, name, got[name], want)
			}
		}
	}
	for i, r := range reqs {
		o := outs[i]
		if !o.ok() {
			continue
		}
		switch r.kind {
		case kindHot, kindFresh:
			v, seen := vecs[r.src]
			if !seen {
				var err error
				if v, err = core.EmbedSource(r.src, "histogram"); err != nil {
					rep.fail("request %d: in-process embed: %v", i, err)
					continue
				}
				vecs[r.src] = v
			}
			expect(v, o.verdicts, fmt.Sprintf("request %d classify", i))
		case kindExecute:
			or, seen := oracles[r.src]
			if !seen {
				var err error
				if or, err = difftest.Oracle(r.src); err != nil {
					rep.fail("request %d: oracle: %v", i, err)
					continue
				}
				oracles[r.src] = or
			}
			if o.exec == nil {
				rep.fail("request %d: execute answer has no result", i)
				continue
			}
			got := difftest.Obs{Ret: o.exec.Ret, Out: o.exec.Output, Steps: o.exec.Steps}
			if o.exec.Trap != "" {
				got.Trap = "other"
			}
			if v, why := difftest.Equivalent(or, got); v.Failure() {
				rep.fail("request %d: %s execute diverges from the oracle: %s", i, r.evader, why)
			}
		case kindTransform:
			if pick.Intn(8) != 0 {
				continue
			}
			irText, v, err := core.TransformEmbed(r.src, r.evader, "histogram", r.seed)
			if err != nil {
				rep.fail("request %d: in-process transform: %v", i, err)
				continue
			}
			if irText != o.transform.IR {
				rep.fail("request %d: %s transform IR differs from the in-process transform", i, r.evader)
			}
			expect(v, o.verdicts, fmt.Sprintf("request %d transform", i))
		}
	}
}

// phaseRun is one load phase: what was sent, what came back and its
// summary.
type phaseRun struct {
	reqs  []request
	outs  []outcome
	stats phaseStats
}

// loadPhases builds the three phases' schedules from the seed, then drives
// light and heavy open-loop and the capacity phase closed-loop. It returns
// the phases and each capacity block's rate: successes per second.
func loadPhases(ctx *runCtx, f *fleet) ([]phaseRun, []float64, error) {
	rng := rand.New(rand.NewSource(ctx.seed*31 + 7))
	fresh := append([]string(nil), f.fresh...)
	var runs []phaseRun
	for _, ph := range []struct {
		name string
		rps  int
	}{{"light", lightRPS}, {"heavy", heavyRPS}} {
		swapEvery := int(float64(ph.rps) * smSwapEvery.Seconds())
		reqs, err := schedule(rng, int(float64(ph.rps)*phaseSpan(ctx).Seconds()), ph.rps, swapEvery, f, &fresh)
		if err != nil {
			return nil, nil, err
		}
		t := time.Now()
		outs := drive(f, reqs, ctx.workers, true)
		runs = append(runs, phaseRun{reqs: reqs, outs: outs, stats: summarise(ph.name, reqs, outs, time.Since(t))})
	}

	reqs, err := schedule(rng, capBlocks*capBlockReqs, capSwapEvery, capSwapEvery, f, &fresh)
	if err != nil {
		return nil, nil, err
	}
	var outs []outcome
	var rates []float64
	var total time.Duration
	for b := 0; b < capBlocks; b++ {
		t := time.Now()
		block := drive(f, reqs[b*capBlockReqs:(b+1)*capBlockReqs], ctx.workers, false)
		d := time.Since(t)
		ok := 0
		for _, o := range block {
			if o.ok() {
				ok++
			}
		}
		outs, rates, total = append(outs, block...), append(rates, float64(ok)/d.Seconds()), total+d
	}
	st := summarise("capacity", reqs, outs, total)
	st.closed = true
	runs = append(runs, phaseRun{reqs: reqs, outs: outs, stats: st})
	return runs, rates, nil
}

func runServeMix(ctx *runCtx) (*report, error) {
	rep := newReport()
	var f *fleet
	var setups []time.Duration
	for i := 0; i < smSetupReps; i++ {
		runtime.GC()
		fl, d, err := smSetup(ctx, ctx.workers)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		if i < smSetupReps-1 {
			fl.shutdown()
		} else {
			f = fl
		}
	}
	defer f.shutdown()

	a0, before, rss := totalAlloc(), obs.Capture(), sampleRSS()
	runs, rates, err := loadPhases(ctx, f)
	rssMed := rss.medianMB()
	if err != nil {
		return nil, err
	}
	alloc, delta := float64(totalAlloc()-a0), obs.Capture().Sub(before)
	for _, r := range runs {
		rep.attempted += r.stats.sent
		rep.failed += r.stats.failed
	}
	if !ctx.trace {
		for _, r := range runs {
			checkOutcomes(rep, f, r.reqs, r.outs, ctx.seed)
		}
	}
	light, heavy := runs[0].stats, runs[1].stats
	for _, r := range runs {
		rep.notes = append(rep.notes, r.stats.lines()...)
	}
	rep.note("# workload-metric heavy.goodput_rps %.4f 1/s (limit %v)", heavy.goodput, latencyLimit)
	capacity := median(rates)
	rep.note("# closed-loop capacity: %d blocks of %d requests from %d workers, median block %.2f successes/s (blocks %.1f)",
		capBlocks, capBlockReqs, ctx.workers, capacity, rates)
	rep.note("# workload-metric fail_ratio %.4f ratio", ratio(float64(rep.failed), float64(rep.attempted)))
	if ctx.trace {
		return traceServe(ctx, rep, f, runs, delta)
	}
	rep.metrics["setup_s"] = median(secondsOf(setups))
	rep.metrics["latency_ms_p50"] = light.p50
	rep.metrics["ops_per_s"] = capacity
	rep.metrics["alloc_mb"] = alloc / float64(rep.attempted) / (1 << 20)
	rep.metrics["rss_mb"] = rssMed
	rep.note("# checks: classify verdicts equal the in-process models, execute results equal the oracle, sampled transforms equal the in-process transform")
	return rep, nil
}

// traceServe reads the layer counters from the phases' obs delta d, then
// measures the hops with idle single requests, then replays a sample of the
// heavy mix in-process through the layer calls under the tracer.
func traceServe(ctx *runCtx, rep *report, f *fleet, runs []phaseRun, d obs.Snapshot) (*report, error) {
	m := rep.metrics
	c := func(name string) float64 { return float64(d.Counters[name]) }
	m["serve.batch_size_mean"] = ratio(c("serve.batched_requests"), c("serve.batches"))
	reqs := c("gateway.requests")
	m["gateway.hedges_per_req"] = ratio(c("gateway.hedges"), reqs)
	m["gateway.retries_per_req"] = ratio(c("gateway.retries"), reqs)
	m["gateway.useful_ratio"] = ratio(reqs, reqs+c("gateway.hedges")+c("gateway.retries"))
	uh, um := c("progcache.untrusted.hits"), c("progcache.untrusted.misses")
	m["progcache.untrusted.hit_ratio"] = ratio(uh, uh+um)
	m["progcache.untrusted.evictions"] = c("progcache.untrusted.evictions")
	m["gen.late_ms_p99"] = runs[1].stats.lateP99
	m["linalg.gemm_calls"] = float64(gemmCalls(d))

	// Hops, idle and one at a time: the same hot classify in-process,
	// direct to a replica, and through the gateway.
	t := newTracer()
	src := f.hot[0]
	hot := request{kind: kindHot, src: src}
	var compute, direct, viaGW []float64
	const hops = 60
	endHops := t.begin("bench.hops")
	for i := 0; i < hops; i++ {
		start := time.Now()
		t.do("serve.compute", func() {
			v, err := core.EmbedSourceUntrusted(src, "histogram")
			if err == nil {
				for _, name := range smModels {
					f.models[name].Predict(v)
				}
			}
		})
		compute = append(compute, float64(time.Since(start))/1e6)
		start = time.Now()
		var o outcome
		t.do("http.replica", func() { o = f.sendTo(f.repAddrs[i%len(f.repAddrs)], hot) })
		direct = append(direct, float64(time.Since(start))/1e6)
		start = time.Now()
		var g outcome
		t.do("http.gateway", func() { g = f.send(hot) })
		viaGW = append(viaGW, float64(time.Since(start))/1e6)
		if !o.ok() || !g.ok() {
			rep.fail("hop probe %d: replica status %d, gateway status %d", i, o.status, g.status)
		}
	}
	endHops()
	m["serve.compute_ms"] = median(compute)
	m["serve.hop_ms"] = median(direct) - median(compute)
	m["gateway.hop_ms"] = median(viaGW) - median(direct)

	// In-process replay of the first part of the heavy mix, untraced and
	// then traced: the difference is the tracing overhead. A first,
	// untimed pass puts both timed passes on the same cache state.
	sample := runs[1].reqs
	if len(sample) > 200 {
		sample = sample[:200]
	}
	if err := replayRequests(nil, f, sample); err != nil {
		return nil, err
	}
	untraced := time.Now()
	if err := replayRequests(nil, f, sample); err != nil {
		return nil, err
	}
	untracedDur := time.Since(untraced)
	endReplay := t.begin("bench.replay")
	err := replayRequests(t, f, sample)
	endReplay()
	if err != nil {
		return nil, err
	}
	var replayDur time.Duration
	for _, s := range t.spans {
		if s.Name == "bench.replay" {
			replayDur = time.Duration(s.Dur())
		}
	}
	spanMetrics(m, t.spans)
	m["trace.overhead_s"] = (replayDur - untracedDur).Seconds()
	rep.note("# serve-mix hops (median of %d idle requests): compute %.3f ms, replica %.3f ms, gateway %.3f ms",
		hops, median(compute), median(direct), median(viaGW))
	rep.note("# serve-mix replay of %d heavy-phase requests in-process: untraced %.3f s, traced %.3f s",
		len(sample), untracedDur.Seconds(), replayDur.Seconds())
	finishTrace(ctx, rep, "serve-mix", t.spans)
	return rep, nil
}

// replayRequests runs each request's server-side work in-process through
// the layer calls the handlers make: the untrusted compile tier, the
// evader, flattening, embedding, prediction and execution.
func replayRequests(t *tracer, f *fleet, reqs []request) error {
	emb, err := embed.Get("histogram")
	if err != nil {
		return err
	}
	eng, err := interp.EngineByName("")
	if err != nil {
		return err
	}
	predict := func(v embed.Vector) {
		for _, name := range smModels {
			t.do("ml.predict", func() { f.models[name].Predict(v) })
		}
	}
	for _, r := range reqs {
		end := t.begin("bench.request")
		switch r.kind {
		case kindHot, kindFresh:
			var fl *ir.Flat
			t.do("progcache.flat_untrusted", func() { fl, err = progcache.CompileFlatUntrusted(r.src, "prog") })
			if err != nil {
				return err
			}
			var v embed.Vector
			t.do("embed.vec", func() { v = emb.VecFlat(fl) })
			predict(v)
		case kindTransform, kindExecute:
			m, err := transformModule(t, progcache.CompileThawUntrusted, r.src, r.evader, rand.New(rand.NewSource(r.seed)), nil)
			if err != nil {
				return err
			}
			var fl *ir.Flat
			t.do("ir.flatten", func() { fl = ir.Flatten(m) })
			var v embed.Vector
			t.do("embed.vec", func() { v = emb.VecFlat(fl) })
			predict(v)
			if r.kind == kindExecute {
				t.do("interp.run", func() { _, _ = eng.Run(m, interp.Options{MaxSteps: core.ExecMaxSteps}) })
			}
			t.do("ir.print", func() { _ = m.String() })
		case kindSwap:
			t.do("ml.load", func() { _, _, err = ml.LoadLineage(bytes.NewReader(f.snapshot)) })
			if err != nil {
				return err
			}
		}
		end()
	}
	return nil
}
