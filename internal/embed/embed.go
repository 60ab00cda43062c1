// Package embed implements the nine program embeddings of the paper's
// classification arena (Figure 3): three vector embeddings — histogram,
// milepost and ir2vec — and six graph embeddings — cfg, cfg_compact, cdfg,
// cdfg_compact, cdfg_plus and programl. Vector embeddings feed all six
// stochastic models; graph embeddings feed the DGCNN.
package embed

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/ir"
)

// Vector is a fixed-length numeric program representation.
type Vector []float64

// Graph is an attributed directed graph program representation: node
// feature vectors (uniform dimension), typed edges.
type Graph struct {
	NodeFeats [][]float64
	Edges     [][2]int
	EdgeTypes []EdgeType
}

// EdgeType labels graph edges.
type EdgeType int

// Edge categories, following ProGraML's terminology.
const (
	ControlEdge EdgeType = iota
	DataEdge
	CallEdge
	MemoryEdge
)

// NumNodes returns the number of nodes in g.
func (g *Graph) NumNodes() int { return len(g.NodeFeats) }

// FeatDim returns the node feature dimensionality (0 for an empty graph).
func (g *Graph) FeatDim() int {
	if len(g.NodeFeats) == 0 {
		return 0
	}
	return len(g.NodeFeats[0])
}

// Kind discriminates vector from graph embeddings.
type Kind int

// Embedding output kinds.
const (
	VectorKind Kind = iota
	GraphKind
)

// Embedding is a named embedding function over the struct-of-arrays
// ir.Flat view: a shared progcache view for cached sources, or
// ir.Flatten(m) for a module after its last mutation. The builders allocate
// only their output. Their pointer-IR oracles live in the package tests,
// which pin the two bit-for-bit equal.
type Embedding struct {
	Name string
	Kind Kind
	// VecFlat computes the vector form (VectorKind only).
	VecFlat func(*ir.Flat) Vector
	// GraphFlat computes the graph form (GraphKind only).
	GraphFlat func(*ir.Flat) *Graph
}

// Names lists all embeddings in the paper's order (Figure 3).
func Names() []string {
	return []string{
		"cfg", "cfg_compact", "cdfg", "cdfg_compact", "cdfg_plus",
		"programl", "ir2vec", "milepost", "histogram",
	}
}

// VectorNames lists the vector embeddings (usable with all models).
func VectorNames() []string { return []string{"ir2vec", "milepost", "histogram"} }

// Get returns the embedding registered under name.
func Get(name string) (*Embedding, error) {
	switch name {
	case "histogram":
		return &Embedding{Name: name, Kind: VectorKind, VecFlat: HistogramFlat}, nil
	case "milepost":
		return &Embedding{Name: name, Kind: VectorKind, VecFlat: MilepostFlat}, nil
	case "ir2vec":
		return &Embedding{Name: name, Kind: VectorKind, VecFlat: IR2VecFlat}, nil
	case "cfg":
		return &Embedding{Name: name, Kind: GraphKind, GraphFlat: CFGFlat}, nil
	case "cfg_compact":
		return &Embedding{Name: name, Kind: GraphKind, GraphFlat: CFGCompactFlat}, nil
	case "cdfg":
		return &Embedding{Name: name, Kind: GraphKind, GraphFlat: CDFGFlat}, nil
	case "cdfg_compact":
		return &Embedding{Name: name, Kind: GraphKind, GraphFlat: CDFGCompactFlat}, nil
	case "cdfg_plus":
		return &Embedding{Name: name, Kind: GraphKind, GraphFlat: CDFGPlusFlat}, nil
	case "programl":
		return &Embedding{Name: name, Kind: GraphKind, GraphFlat: ProGraMLFlat}, nil
	}
	return nil, fmt.Errorf("embed: unknown embedding %q", name)
}

// featRows carves n zeroed feature rows of width dim out of one backing
// array: a single allocation instead of one per node, which dominates the
// graph builders' allocation profile on instruction-level embeddings.
func featRows(n, dim int) [][]float64 {
	backing := make([]float64, n*dim)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = backing[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return rows
}

func (g *Graph) addEdge(from, to int, t EdgeType) {
	g.Edges = append(g.Edges, [2]int{from, to})
	g.EdgeTypes = append(g.EdgeTypes, t)
}

// ir2vecDim is the dimensionality of the IR2Vec-style embedding. The
// original uses 300; 64 keeps the from-scratch models cheap while
// preserving the construction (seed vocabulary + flow-weighted sums).
const ir2vecDim = 64

func addScaled(dst Vector, src []float64, w float64) {
	for i := range dst {
		dst[i] += w * src[i]
	}
}

// seedCache memoizes the deterministic seed vectors. A sync.Map keeps the
// hot path lock-free: the vocabulary is tiny (one entry per opcode, type
// and operand kind) and read-mostly, and holding a global mutex while
// generating the vector serialized every featurize worker.
var seedCache sync.Map // token string -> []float64

// seedVec derives a deterministic pseudo-random unit-scale vector from a
// token via an FNV-based SplitMix stream (the "seed embedding vocabulary").
// The derivation is a pure function of the token, so a racing duplicate
// computation is harmless — LoadOrStore keeps the first stored copy.
func seedVec(token string) []float64 {
	if v, ok := seedCache.Load(token); ok {
		return v.([]float64)
	}
	var h uint64 = 1469598103934665603
	for i := 0; i < len(token); i++ {
		h ^= uint64(token[i])
		h *= 1099511628211
	}
	v := make([]float64, ir2vecDim)
	x := h
	for i := range v {
		// SplitMix64 step.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		v[i] = float64(int64(z)) / float64(1<<63) * 0.5
	}
	stored, _ := seedCache.LoadOrStore(token, v)
	return stored.([]float64)
}

// Distance returns the Euclidean distance between two vectors (used for
// the Figure 10 histogram-distance analysis and by the evader strategies).
func Distance(a, b Vector) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	for i := n; i < len(a); i++ {
		s += a[i] * a[i]
	}
	for i := n; i < len(b); i++ {
		s += b[i] * b[i]
	}
	return math.Sqrt(s)
}
