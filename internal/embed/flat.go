package embed

import (
	"sync"

	"repro/internal/ir"
)

// This file builds every embedding on the struct-of-arrays ir.Flat view.
// Each builder produces byte-identical output to its pointer-IR oracle in
// oracle_test.go (the flat_equiv_test suite pins this). Node indices are
// instruction indices, so there is no per-call map[*ir.Instr]int, every
// slice is sized by an exact counting pass over the dense tables, and the
// few builders that need real scratch (programl's value-node tables,
// milepost's dominator arrays, ir2vec's per-type vector cache) draw it from
// sync.Pools.

// HistogramFlat returns the 63-dimensional opcode histogram — "a vector of
// 63 positions counting instruction opcodes" — in one pass over the dense
// opcode column. Despite its simplicity the paper finds it competitive with
// every learned representation.
func HistogramFlat(fl *ir.Flat) Vector {
	v := make(Vector, ir.NumOpcodes)
	for _, op := range fl.Ops {
		v[op]++
	}
	return v
}

// countControlEdges sizes the instruction-level control edge set:
// sequential flow inside blocks plus terminator-to-target-head edges.
func countControlEdges(fl *ir.Flat) int {
	n := 0
	for bi := range fl.Blocks {
		b := &fl.Blocks[bi]
		if b.Ins1 > b.Ins0 {
			n += int(b.Ins1-b.Ins0) - 1
		}
		for _, s := range fl.BlockSuccs(int32(bi)) {
			if fl.Blocks[s].Ins1 > fl.Blocks[s].Ins0 {
				n++
			}
		}
	}
	return n
}

// appendControlEdges appends instruction-level control-flow edges:
// sequential flow inside blocks plus terminator-to-target-head edges. Node
// index == module-wide instruction index.
func appendControlEdges(g *Graph, fl *ir.Flat) {
	for bi := range fl.Blocks {
		b := &fl.Blocks[bi]
		for i := b.Ins0; i+1 < b.Ins1; i++ {
			g.addEdge(int(i), int(i+1), ControlEdge)
		}
		for _, s := range fl.BlockSuccs(int32(bi)) {
			sb := &fl.Blocks[s]
			if sb.Ins1 > sb.Ins0 {
				g.addEdge(int(b.Ins1-1), int(sb.Ins0), ControlEdge)
			}
		}
	}
}

// dataEdgeSource maps an operand to its def node: an in-module instruction
// is its own index; a detached instruction degrades to node 0 exactly like
// the pointer oracle's zero-value map lookup (out-of-contract IR only).
func dataEdgeSource(a ir.Operand) (int, bool) {
	switch a.Kind {
	case ir.OperInstr:
		return int(a.Idx), true
	case ir.OperBadInstr:
		return 0, true
	}
	return 0, false
}

// countDataEdges sizes the def-use edge set.
func countDataEdges(fl *ir.Flat) int {
	n := 0
	for _, a := range fl.Operands {
		if a.Kind == ir.OperInstr || a.Kind == ir.OperBadInstr {
			n++
		}
	}
	return n
}

// appendDataEdges appends def-use edges between instruction nodes.
func appendDataEdges(g *Graph, fl *ir.Flat) {
	n := int32(fl.NumInstrs())
	for i := int32(0); i < n; i++ {
		for _, a := range fl.Args(i) {
			if d, ok := dataEdgeSource(a); ok {
				g.addEdge(d, int(i), DataEdge)
			}
		}
	}
}

// newGraph allocates a graph with n feature rows of width dim and exact
// edge capacity ne.
func newGraph(n, dim, ne int) *Graph {
	return &Graph{
		NodeFeats: featRows(n, dim),
		Edges:     make([][2]int, 0, ne),
		EdgeTypes: make([]EdgeType, 0, ne),
	}
}

// CFGFlat is Brauckmann et al.'s control-flow graph: one node per
// instruction with a one-hot opcode feature, control-flow edges only.
func CFGFlat(fl *ir.Flat) *Graph {
	n := fl.NumInstrs()
	g := newGraph(n, int(ir.NumOpcodes), countControlEdges(fl))
	for i := 0; i < n; i++ {
		g.NodeFeats[i][fl.Ops[i]] = 1
	}
	appendControlEdges(g, fl)
	return g
}

// blockFeats fills one opcode-histogram row per basic block.
func blockFeats(g *Graph, fl *ir.Flat) {
	for bi := range fl.Blocks {
		b := &fl.Blocks[bi]
		row := g.NodeFeats[bi]
		for i := b.Ins0; i < b.Ins1; i++ {
			row[fl.Ops[i]]++
		}
	}
}

// CFGCompactFlat groups instructions into basic blocks: one node per block
// (node index == module-wide block index) with an opcode-histogram feature,
// CFG edges between blocks.
func CFGCompactFlat(fl *ir.Flat) *Graph {
	ne := 0
	for bi := range fl.Blocks {
		ne += len(fl.BlockSuccs(int32(bi)))
	}
	g := newGraph(len(fl.Blocks), int(ir.NumOpcodes), ne)
	blockFeats(g, fl)
	for bi := range fl.Blocks {
		for _, s := range fl.BlockSuccs(int32(bi)) {
			g.addEdge(bi, int(s), ControlEdge)
		}
	}
	return g
}

// CDFGFlat adds data-flow (def-use) edges to CFGFlat.
func CDFGFlat(fl *ir.Flat) *Graph {
	n := fl.NumInstrs()
	g := newGraph(n, int(ir.NumOpcodes), countControlEdges(fl)+countDataEdges(fl))
	for i := 0; i < n; i++ {
		g.NodeFeats[i][fl.Ops[i]] = 1
	}
	appendControlEdges(g, fl)
	appendDataEdges(g, fl)
	return g
}

// seenPool recycles the cross-block-edge dedup set of CDFGCompactFlat.
var seenPool = sync.Pool{
	New: func() any { return make(map[[2]int32]bool, 64) },
}

// CDFGCompactFlat is the block-level variant of CDFGFlat: block nodes with
// histogram features, control edges, plus data edges between blocks that
// communicate through SSA values. Each block emits its successor edges,
// then its first-discovery cross-block data edges; the dedup set is pooled.
func CDFGCompactFlat(fl *ir.Flat) *Graph {
	seen := seenPool.Get().(map[[2]int32]bool)
	ne := 0
	for bi := range fl.Blocks {
		b := &fl.Blocks[bi]
		ne += len(fl.BlockSuccs(int32(bi)))
		for i := b.Ins0; i < b.Ins1; i++ {
			for _, a := range fl.Args(i) {
				if a.Kind != ir.OperInstr {
					continue
				}
				db := fl.Instrs[a.Idx].Blk
				if db == int32(bi) {
					continue
				}
				key := [2]int32{db, int32(bi)}
				if !seen[key] {
					seen[key] = true
					ne++
				}
			}
		}
	}
	clear(seen)

	g := newGraph(len(fl.Blocks), int(ir.NumOpcodes), ne)
	blockFeats(g, fl)
	for bi := range fl.Blocks {
		b := &fl.Blocks[bi]
		for _, s := range fl.BlockSuccs(int32(bi)) {
			g.addEdge(bi, int(s), ControlEdge)
		}
		for i := b.Ins0; i < b.Ins1; i++ {
			for _, a := range fl.Args(i) {
				if a.Kind != ir.OperInstr {
					continue
				}
				db := fl.Instrs[a.Idx].Blk
				if db == int32(bi) {
					continue
				}
				key := [2]int32{db, int32(bi)}
				if !seen[key] {
					seen[key] = true
					g.addEdge(int(db), bi, DataEdge)
				}
			}
		}
	}
	clear(seen)
	seenPool.Put(seen)
	return g
}

// callTarget resolves a call instruction's defined-callee entry head: the
// first instruction of the callee's entry block, or -1 when the callee is
// unknown, a declaration, or has an empty entry block.
func callTarget(fl *ir.Flat, i int32) int32 {
	aux := fl.Instrs[i].Aux
	if fl.Op(i) != ir.OpCall || aux < 0 {
		return -1
	}
	f := &fl.Funcs[aux]
	if f.IsDecl() {
		return -1
	}
	entry := &fl.Blocks[f.Blk0]
	if entry.Ins1 == entry.Ins0 {
		return -1
	}
	return entry.Ins0
}

// CDFGPlusFlat extends CDFGFlat with call edges (call site to callee entry
// and callee returns back to the call site) and memory edges linking allocas
// to the loads and stores that touch them.
func CDFGPlusFlat(fl *ir.Flat) *Graph {
	n := int32(fl.NumInstrs())
	ne := countControlEdges(fl) + countDataEdges(fl)
	for i := int32(0); i < n; i++ {
		if fl.Op(i) == ir.OpCall && fl.Instrs[i].Aux >= 0 && !fl.Funcs[fl.Instrs[i].Aux].IsDecl() {
			if callTarget(fl, i) >= 0 {
				ne++
			}
			f := &fl.Funcs[fl.Instrs[i].Aux]
			for r := f.Ins0; r < f.Ins1; r++ {
				if fl.Op(r) == ir.OpRet {
					ne++
				}
			}
		}
	}
	for i := int32(0); i < n; i++ {
		switch fl.Op(i) {
		case ir.OpLoad:
			if a := fl.Args(i); len(a) > 0 && a[0].Kind == ir.OperInstr && fl.Op(a[0].Idx) == ir.OpAlloca {
				ne++
			}
		case ir.OpStore:
			if a := fl.Args(i); len(a) > 1 && a[1].Kind == ir.OperInstr && fl.Op(a[1].Idx) == ir.OpAlloca {
				ne++
			}
		}
	}

	g := newGraph(int(n), int(ir.NumOpcodes), ne)
	for i := int32(0); i < n; i++ {
		g.NodeFeats[i][fl.Ops[i]] = 1
	}
	appendControlEdges(g, fl)
	appendDataEdges(g, fl)
	for i := int32(0); i < n; i++ {
		if fl.Op(i) == ir.OpCall && fl.Instrs[i].Aux >= 0 && !fl.Funcs[fl.Instrs[i].Aux].IsDecl() {
			if t := callTarget(fl, i); t >= 0 {
				g.addEdge(int(i), int(t), CallEdge)
			}
			f := &fl.Funcs[fl.Instrs[i].Aux]
			for r := f.Ins0; r < f.Ins1; r++ {
				if fl.Op(r) == ir.OpRet {
					g.addEdge(int(r), int(i), CallEdge)
				}
			}
		}
	}
	for i := int32(0); i < n; i++ {
		switch fl.Op(i) {
		case ir.OpLoad:
			if a := fl.Args(i); len(a) > 0 && a[0].Kind == ir.OperInstr && fl.Op(a[0].Idx) == ir.OpAlloca {
				g.addEdge(int(a[0].Idx), int(i), MemoryEdge)
			}
		case ir.OpStore:
			if a := fl.Args(i); len(a) > 1 && a[1].Kind == ir.OperInstr && fl.Op(a[1].Idx) == ir.OpAlloca {
				g.addEdge(int(i), int(a[1].Idx), MemoryEdge)
			}
		}
	}
	return g
}

// programlScratch holds the value-node id tables of ProGraMLFlat, indexed
// by const-alias, parameter, global and string-pool position. Entries
// store node id + 1 (0 = unassigned) so a zeroed table is empty.
type programlScratch struct {
	constNode    []int32
	paramNode    []int32
	globalNode   []int32
	badParamNode []int32
}

var programlPool = sync.Pool{New: func() any { return new(programlScratch) }}

// grabI32 returns buf resized to n entries, all set to fill, growing the
// backing array only when capacity is exceeded.
func grabI32(buf []int32, n int, fill int32) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
		if fill == 0 {
			return buf
		}
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = fill
	}
	return buf
}

// programlValueSlot maps an operand to its slot in the scratch tables, with
// the value-node category, mirroring the pointer oracle's key scheme:
// constants merge by rendered form (ConstAlias), parameters are distinct
// per object, globals merge by name. Slot -1 means "no value node"
// (instruction operands, function references).
func programlValueSlot(fl *ir.Flat, sc *programlScratch, a ir.Operand) (table []int32, slot int32, cat int) {
	switch a.Kind {
	case ir.OperConst:
		return sc.constNode, fl.ConstAlias[a.Idx], 0
	case ir.OperParam:
		return sc.paramNode, a.Idx, 1
	case ir.OperBadParam:
		return sc.badParamNode, a.Idx, 1
	case ir.OperGlobal:
		return sc.globalNode, fl.Globals[a.Idx].NameAlias, 2
	}
	return nil, -1, 0
}

// ProGraMLFlat builds the full program graph of Cummins et al.: instruction
// nodes plus distinct value nodes (constants, parameters, globals), with
// control, data and call edges. Node features are a one-hot over
// NumOpcodes+3 categories (instructions by opcode; constants, parameters
// and globals as three extra categories). Two passes over the instruction
// table — one counting value nodes and edges, one assigning node ids in
// first-use order — let every output slice be allocated exactly once.
func ProGraMLFlat(fl *ir.Flat) *Graph {
	n := int32(fl.NumInstrs())
	dim := int(ir.NumOpcodes) + 3
	sc := programlPool.Get().(*programlScratch)
	sc.constNode = grabI32(sc.constNode, len(fl.ConstAlias), 0)
	sc.paramNode = grabI32(sc.paramNode, len(fl.ParamNames), 0)
	sc.globalNode = grabI32(sc.globalNode, len(fl.Globals), 0)
	sc.badParamNode = grabI32(sc.badParamNode, len(fl.Strings), 0)

	nVal, nData, nCall := 0, 0, 0
	for i := int32(0); i < n; i++ {
		for _, a := range fl.Args(i) {
			if a.Kind == ir.OperInstr || a.Kind == ir.OperBadInstr {
				nData++
				continue
			}
			table, slot, _ := programlValueSlot(fl, sc, a)
			if table == nil {
				continue
			}
			nData++
			if table[slot] == 0 {
				table[slot] = 1
				nVal++
			}
		}
		if callTarget(fl, i) >= 0 {
			nCall++
		}
	}
	zeroI32(sc.constNode)
	zeroI32(sc.paramNode)
	zeroI32(sc.globalNode)
	zeroI32(sc.badParamNode)

	g := newGraph(int(n)+nVal, dim, countControlEdges(fl)+nData+nCall)
	for i := int32(0); i < n; i++ {
		g.NodeFeats[i][fl.Ops[i]] = 1
	}
	appendControlEdges(g, fl)
	next := n
	for i := int32(0); i < n; i++ {
		for _, a := range fl.Args(i) {
			if d, ok := dataEdgeSource(a); ok {
				g.addEdge(d, int(i), DataEdge)
				continue
			}
			table, slot, cat := programlValueSlot(fl, sc, a)
			if table == nil {
				continue
			}
			node := table[slot] - 1
			if node < 0 {
				node = next
				next++
				table[slot] = node + 1
				g.NodeFeats[node][int(ir.NumOpcodes)+cat] = 1
			}
			g.addEdge(int(node), int(i), DataEdge)
		}
		if t := callTarget(fl, i); t >= 0 {
			g.addEdge(int(i), int(t), CallEdge)
		}
	}
	programlPool.Put(sc)
	return g
}

func zeroI32(s []int32) {
	for i := range s {
		s[i] = 0
	}
}
