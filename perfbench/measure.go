package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the set of percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten samples strictly beyond it, by the nearest-rank rule, together
// with its value. With fewer than twenty samples no percentile qualifies;
// the maximum is returned with q = 1 so the caller can label it as such.
func tailPercentile(xs []float64) (q, v float64) {
	n := len(xs)
	for _, p := range tailLadder {
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			return p, nearestRank(xs, p)
		}
	}
	return 1, nearestRank(xs, 1)
}

// nearestRank is the q-quantile of xs by the nearest-rank rule: the value
// at 1-based rank ceil(q*n) of the sorted samples, or 0 for no samples.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// percentileLabel names a tailPercentile q for the printed report.
func percentileLabel(q float64) string {
	if q >= 1 {
		return "max"
	}
	return "p" + strconv.FormatFloat(q*100, 'f', -1, 64)
}

// goodput is the number of successful operations whose latency is within
// limit, per second of the given span.
func goodput(lat []time.Duration, ok []bool, limit, span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	n := 0
	for i, d := range lat {
		if ok[i] && d <= limit {
			n++
		}
	}
	return float64(n) / span.Seconds()
}

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// secondsOf converts durations to float seconds.
func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// totalAlloc returns the runtime's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// rssEvery is how often a workload's resident set is sampled.
const rssEvery = 50 * time.Millisecond

// rssSampler samples the process's resident set every rssEvery while a
// workload's timed operations run. Workloads report the median sample, not
// the peak (VmHWM): over ten runs of one build on a shared 2-core host,
// fig13-speedup's peak moved between 17 and 28 MB, with whether a GC ran
// between two interpreter memory arenas, while its median moved by 2%.
type rssSampler struct {
	stop    chan struct{}
	samples chan []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), samples: make(chan []float64, 1)}
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var xs []float64
		for {
			xs = append(xs, rssMB())
			select {
			case <-s.stop:
				s.samples <- xs
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// medianMB stops the sampler and returns its median sample.
func (s *rssSampler) medianMB() float64 {
	close(s.stop)
	return median(<-s.samples)
}

// rssMB returns the process's resident set (VmRSS) in MiB. Where /proc is
// unavailable it falls back to the memory the Go runtime obtained from the
// OS, which bounds the heap part of the same quantity.
func rssMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmRSS:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digest is a SHA-256 over labelled byte strings.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(label string, data []byte) {
	d.h.Write([]byte(label))
	d.h.Write([]byte{0})
	d.h.Write(data)
	d.h.Write([]byte{0})
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }
