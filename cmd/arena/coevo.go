package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/coevo"
)

// cmdCoevo runs the online adversarial arena: persistent evader populations
// co-evolve against a defending classifier that is incrementally retrained
// each generation on the evasions it failed to catch. Deterministic for a
// fixed seed at any -j; per-generation numbers land in the run manifest so
// two runs diff with `arena report`:
//
//	arena coevo -gens 10 -strategy ga -model lr -out runs/coevo.json
//	arena coevo -gens 5 -push http://127.0.0.1:8090   # hot-swap each checkpoint
func cmdCoevo(args []string) error {
	fs := flag.NewFlagSet("coevo", flag.ExitOnError)
	c := addCommon(fs)
	gens := fs.Int("gens", 5, "arena generations to play")
	strategy := fs.String("strategy", "ga", "evader strategy for every population (rs|mcmc|drlsg|ga)")
	model := fs.String("model", "lr", "defending classifier (warm-start retrained when supported)")
	embedding := fs.String("embedding", "histogram", "vector embedding both sides fight in")
	attackers := fs.Int("attackers", 4, "evader populations (each rooted at one attack-pool program)")
	pop := fs.Int("pop", 4, "members per population")
	trainFrac := fs.Float64("train-frac", 0.5, "defender training split; the rest is halved into holdout and attack pool")
	tol := fs.Float64("tol", 0.02, "holdout accuracy a retrain may lose before the checkpoint is rolled back")
	eloK := fs.Float64("elo-k", 0, "Elo K-factor per generation block (0 = default 32)")
	push := fs.String("push", "", "gateway or serve base URL to hot-swap every accepted checkpoint into")
	snapdir := fs.String("snapdir", "", "directory for per-generation snapshot files (<model>.genNNN.snap)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, err := c.obs.begin("coevo", fs, c.seed, c.verbose)
	if err != nil {
		return err
	}
	set, err := c.loadSet()
	if err != nil {
		return err
	}
	cfg := coevo.Config{
		Set:         set,
		Embedding:   *embedding,
		Model:       *model,
		Strategy:    *strategy,
		Attackers:   *attackers,
		PopSize:     *pop,
		Generations: *gens,
		TrainFrac:   *trainFrac,
		Tolerance:   *tol,
		EloK:        *eloK,
		Seed:        c.seed,
		Workers:     c.jobs,
		SnapshotDir: *snapdir,
	}
	if *push != "" {
		cfg.Push = newHTTPPusher(*push)
	}
	res, err := coevo.Run(cfg)
	if err != nil {
		return err
	}

	rec.man.AddCell("coevo/baseline/holdout_acc", "accuracy", []float64{res.BaselineAcc})
	w := newTable()
	fmt.Fprintf(w, "gen\tevasion\tatt elo\tdef elo\tholdout\tdiversity\tnew\tver\tretrain\trolled back\n")
	for _, gr := range res.Generations {
		retrain := "-"
		if gr.RetrainNS > 0 {
			retrain = time.Duration(gr.RetrainNS).Round(time.Millisecond).String()
		}
		fmt.Fprintf(w, "%d\t%.3f\t%.1f\t%.1f\t%.4f\t%.2f\t%d\t%d\t%s\t%v\n",
			gr.Gen, gr.EvasionRate, gr.AttackerElo, gr.DefenderElo, gr.HoldoutAcc,
			gr.Diversity, gr.NewEvasions, gr.Version, retrain, gr.RolledBack)
		cell := fmt.Sprintf("coevo/gen%03d", gr.Gen)
		rec.man.AddCell(cell+"/evasion_rate", "rate", []float64{gr.EvasionRate})
		rec.man.AddCell(cell+"/attacker_elo", "elo", []float64{gr.AttackerElo})
		rec.man.AddCell(cell+"/defender_elo", "elo", []float64{gr.DefenderElo})
		rec.man.AddCell(cell+"/holdout_acc", "accuracy", []float64{gr.HoldoutAcc})
		rec.man.AddCell(cell+"/diversity", "distance", []float64{gr.Diversity})
		rec.man.AddCell(cell+"/new_evasions", "count", []float64{float64(gr.NewEvasions)})
		rec.man.AddCell(cell+"/version", "count", []float64{float64(gr.Version)})
		// Wall time is real but run-dependent: recorded, excluded from diffs.
		rec.man.AddVolatileCell(cell+"/retrain_ms", "latency_ms",
			[]float64{float64(gr.RetrainNS) / 1e6})
	}
	w.Flush()
	last := res.Generations[len(res.Generations)-1]
	fmt.Printf("final: defender v%d, attacker Elo %.1f vs defender Elo %.1f, baseline acc %.4f\n",
		res.FinalVersion, last.AttackerElo, last.DefenderElo, res.BaselineAcc)
	return rec.finish()
}

// httpPusher hot-swaps arena checkpoints into a serve instance or a gateway
// fleet over PUT /v1/models/{name}.
type httpPusher struct {
	base   string
	client *http.Client
}

func newHTTPPusher(addr string) *httpPusher {
	base := strings.TrimRight(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &httpPusher{base: base, client: &http.Client{Timeout: 30 * time.Second}}
}

func (p *httpPusher) Push(model string, snapshot []byte, gen int64) error {
	req, err := http.NewRequest(http.MethodPut,
		p.base+"/v1/models/"+url.PathEscape(model), bytes.NewReader(snapshot))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("push gen %d to %s: status %d: %s",
			gen, p.base, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return nil
}

// cmdHealthz polls a serve or gateway /healthz until it reports the wanted
// status (and, for gateways, a minimum count of healthy replicas), or the
// wait budget runs out. Exit 0 on success makes it a shell-friendly
// assertion for smoke tests:
//
//	arena healthz -addr http://127.0.0.1:8090 -want ok -healthy 3 -wait 45s
func cmdHealthz(args []string) error {
	fs := flag.NewFlagSet("healthz", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "serve or gateway base URL")
	want := fs.String("want", "ok", "required status field value")
	healthy := fs.Int("healthy", 0, "minimum healthy replicas (gateway targets only; 0 = don't check)")
	wait := fs.Duration("wait", 45*time.Second, "polling budget before giving up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimRight(*addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	// The status decode is shape-agnostic: serve answers {status}, the
	// gateway additionally lists replicas.
	type health struct {
		Status   string `json:"status"`
		Replicas []struct {
			Addr    string `json:"addr"`
			Healthy bool   `json:"healthy"`
		} `json:"replicas"`
	}
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(*wait)
	var lastErr error
	for {
		var h health
		resp, err := client.Get(base + "/healthz")
		if err != nil {
			lastErr = err
		} else {
			err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h)
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch {
			case err != nil:
				lastErr = err
			case h.Status != *want:
				lastErr = fmt.Errorf("status %q, want %q", h.Status, *want)
			default:
				up := 0
				for _, r := range h.Replicas {
					if r.Healthy {
						up++
					}
				}
				if *healthy > 0 && up < *healthy {
					lastErr = fmt.Errorf("%d/%d replicas healthy, want %d", up, len(h.Replicas), *healthy)
					break
				}
				if len(h.Replicas) > 0 {
					fmt.Printf("healthz: %s (%d/%d replicas healthy)\n", h.Status, up, len(h.Replicas))
				} else {
					fmt.Printf("healthz: %s\n", h.Status)
				}
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz: %s not %q within %v: %v", base, *want, *wait, lastErr)
		}
		time.Sleep(200 * time.Millisecond)
	}
}
