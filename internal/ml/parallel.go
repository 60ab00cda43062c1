package ml

import (
	"repro/internal/linalg"
	"repro/internal/par"
)

// Deterministic data-parallel training.
//
// Every gradient-trained model splits each minibatch into fixed-size shards
// (trainShard samples for vector models, graphShard graphs for the DGCNN).
// par.For hands whole shards to up to GOMAXPROCS goroutines, which
// accumulate gradients into private per-shard buffers; the reduction then
// merges the shards in shard-index order. The shard structure depends only
// on the batch size — never on the worker count — so the float summation
// order is fixed and training results are byte-identical for any
// GOMAXPROCS, including the serial path (one worker). This is the same
// guarantee the game harness gives for parallel rounds.

const (
	// trainShard is the gradient-shard width for vector models.
	trainShard = 8
	// graphShard is the gradient-shard width for graph models, smaller
	// because one graph is far heavier than one vector sample.
	graphShard = 2
)

func numShards(n, shardSize int) int {
	return (n + shardSize - 1) / shardSize
}

// forShards runs fn(shard, start, end) for every shardSize-wide shard of n
// samples through par.For. fn must write only to per-shard state.
func forShards(n, shardSize int, fn func(shard, start, end int)) {
	_ = par.For(numShards(n, shardSize), 0, func(s int) error {
		fn(s, s*shardSize, min((s+1)*shardSize, n))
		return nil
	})
}

// shardGrads holds per-shard gradient accumulators mirroring a parameter
// tensor list. Merging in shard order fixes the reduction's float summation
// order independently of which worker produced which shard.
type shardGrads struct {
	bufs [][][]float64 // [shard][tensor]
}

func newShardGrads(shards int, params [][]float64) *shardGrads {
	sg := &shardGrads{bufs: make([][][]float64, shards)}
	for s := range sg.bufs {
		sg.bufs[s] = make([][]float64, len(params))
		for t, p := range params {
			sg.bufs[s][t] = make([]float64, len(p))
		}
	}
	return sg
}

// shard returns shard s's tensor buffers, zeroed for a fresh accumulation.
func (sg *shardGrads) shard(s int) [][]float64 {
	bufs := sg.bufs[s]
	for _, b := range bufs {
		linalg.Zero(b)
	}
	return bufs
}

// mergeInto sets grads = Σ_shards bufs[shard], adding shards in index order
// (only the first `used` shards participate).
func (sg *shardGrads) mergeInto(grads [][]float64, used int) {
	for _, g := range grads {
		linalg.Zero(g)
	}
	for s := 0; s < used; s++ {
		for t, b := range sg.bufs[s] {
			linalg.Add(grads[t], b)
		}
	}
}

// splitmix is a tiny SplitMix64 PRNG used for per-sample dropout masks. The
// per-sample seeds are drawn from the model's rand.Rand in batch order
// before the shards fan out, so the mask stream is a pure function of the
// sample's position — not of worker interleaving.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (s *splitmix) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}
