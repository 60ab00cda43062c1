package embed

import (
	"fmt"

	"repro/internal/ir"
)

// This file holds the pointer-IR oracles of the flat builders: each walks
// the *ir.Module pointer graph instead of the flat tables. They are
// test-only; flat_equiv_test.go holds every production builder to
// its oracle bit-for-bit, and the embed benchmarks use them as baselines.

// PointerVec maps each vector embedding's name to its pointer-IR oracle.
var PointerVec = map[string]func(*ir.Module) Vector{
	"histogram": Histogram, "milepost": Milepost, "ir2vec": IR2Vec,
}

// PointerGraph maps each graph embedding's name to its pointer-IR oracle.
var PointerGraph = map[string]func(*ir.Module) *Graph{
	"cfg": CFG, "cfg_compact": CFGCompact, "cdfg": CDFG,
	"cdfg_compact": CDFGCompact, "cdfg_plus": CDFGPlus, "programl": ProGraML,
}

// Histogram is the pointer-IR oracle for HistogramFlat.
func Histogram(m *ir.Module) Vector {
	v := make(Vector, ir.NumOpcodes)
	for _, f := range m.Functions {
		f.ForEachInstr(func(in *ir.Instr) { v[in.Op]++ })
	}
	return v
}

// blockHistogramInto accumulates b's opcode histogram into v.
func blockHistogramInto(v []float64, b *ir.Block) {
	for _, in := range b.Instrs {
		v[in.Op]++
	}
}

// moduleInstrs enumerates instructions of all defined functions in a
// deterministic order, assigning each a node index. Both containers are
// pre-sized by a counting pass.
func moduleInstrs(m *ir.Module) ([]*ir.Instr, map[*ir.Instr]int) {
	n := 0
	for _, f := range m.Functions {
		f.ForEachInstr(func(*ir.Instr) { n++ })
	}
	instrs := make([]*ir.Instr, 0, n)
	idx := make(map[*ir.Instr]int, n)
	for _, f := range m.Functions {
		f.ForEachInstr(func(in *ir.Instr) {
			idx[in] = len(instrs)
			instrs = append(instrs, in)
		})
	}
	return instrs, idx
}

// addControlEdges appends instruction-level control-flow edges: sequential
// flow inside blocks plus terminator-to-target-head edges.
func addControlEdges(g *Graph, m *ir.Module, idx map[*ir.Instr]int) {
	for _, f := range m.Functions {
		for _, b := range f.Blocks {
			for i := 0; i+1 < len(b.Instrs); i++ {
				g.addEdge(idx[b.Instrs[i]], idx[b.Instrs[i+1]], ControlEdge)
			}
			term := b.Term()
			if term == nil {
				continue
			}
			for _, s := range term.Succs() {
				if len(s.Instrs) > 0 {
					g.addEdge(idx[term], idx[s.Instrs[0]], ControlEdge)
				}
			}
		}
	}
}

// CFG is the pointer-IR oracle for CFGFlat.
func CFG(m *ir.Module) *Graph {
	instrs, idx := moduleInstrs(m)
	g := &Graph{NodeFeats: featRows(len(instrs), int(ir.NumOpcodes))}
	for i, in := range instrs {
		g.NodeFeats[i][in.Op] = 1
	}
	addControlEdges(g, m, idx)
	return g
}

// CFGCompact is the pointer-IR oracle for CFGCompactFlat.
func CFGCompact(m *ir.Module) *Graph {
	nb := 0
	for _, f := range m.Functions {
		nb += len(f.Blocks)
	}
	g := &Graph{NodeFeats: featRows(nb, int(ir.NumOpcodes))[:0]}
	bidx := make(map[*ir.Block]int, nb)
	for _, f := range m.Functions {
		for _, b := range f.Blocks {
			bidx[b] = len(g.NodeFeats)
			g.NodeFeats = g.NodeFeats[:len(g.NodeFeats)+1]
			blockHistogramInto(g.NodeFeats[len(g.NodeFeats)-1], b)
		}
	}
	for _, f := range m.Functions {
		for _, b := range f.Blocks {
			for _, s := range b.Succs() {
				g.addEdge(bidx[b], bidx[s], ControlEdge)
			}
		}
	}
	return g
}

// addDataEdges appends def-use edges between instruction nodes.
func addDataEdges(g *Graph, m *ir.Module, idx map[*ir.Instr]int) {
	for _, f := range m.Functions {
		f.ForEachInstr(func(in *ir.Instr) {
			for _, a := range in.Args {
				if d, ok := a.(*ir.Instr); ok {
					g.addEdge(idx[d], idx[in], DataEdge)
				}
			}
		})
	}
}

// CDFG is the pointer-IR oracle for CDFGFlat.
func CDFG(m *ir.Module) *Graph {
	instrs, idx := moduleInstrs(m)
	g := &Graph{NodeFeats: featRows(len(instrs), int(ir.NumOpcodes))}
	for i, in := range instrs {
		g.NodeFeats[i][in.Op] = 1
	}
	addControlEdges(g, m, idx)
	addDataEdges(g, m, idx)
	return g
}

// CDFGCompact is the pointer-IR oracle for CDFGCompactFlat.
func CDFGCompact(m *ir.Module) *Graph {
	nb := 0
	for _, f := range m.Functions {
		nb += len(f.Blocks)
	}
	g := &Graph{NodeFeats: featRows(nb, int(ir.NumOpcodes))[:0]}
	bidx := make(map[*ir.Block]int, nb)
	for _, f := range m.Functions {
		for _, b := range f.Blocks {
			bidx[b] = len(g.NodeFeats)
			g.NodeFeats = g.NodeFeats[:len(g.NodeFeats)+1]
			blockHistogramInto(g.NodeFeats[len(g.NodeFeats)-1], b)
		}
	}
	seen := make(map[[2]int]bool)
	for _, f := range m.Functions {
		for _, b := range f.Blocks {
			for _, s := range b.Succs() {
				g.addEdge(bidx[b], bidx[s], ControlEdge)
			}
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					if d, ok := a.(*ir.Instr); ok && d.Parent != b {
						key := [2]int{bidx[d.Parent], bidx[b]}
						if !seen[key] {
							seen[key] = true
							g.addEdge(key[0], key[1], DataEdge)
						}
					}
				}
			}
		}
	}
	return g
}

// CDFGPlus is the pointer-IR oracle for CDFGPlusFlat.
func CDFGPlus(m *ir.Module) *Graph {
	instrs, idx := moduleInstrs(m)
	g := &Graph{NodeFeats: featRows(len(instrs), int(ir.NumOpcodes))}
	for i, in := range instrs {
		g.NodeFeats[i][in.Op] = 1
	}
	addControlEdges(g, m, idx)
	addDataEdges(g, m, idx)
	for _, in := range instrs {
		if in.Op == ir.OpCall && in.Callee != nil && !in.Callee.IsDecl() {
			entry := in.Callee.Entry()
			if len(entry.Instrs) > 0 {
				g.addEdge(idx[in], idx[entry.Instrs[0]], CallEdge)
			}
			in.Callee.ForEachInstr(func(r *ir.Instr) {
				if r.Op == ir.OpRet {
					g.addEdge(idx[r], idx[in], CallEdge)
				}
			})
		}
	}
	// Memory edges: alloca/global accesses aliasing through the base.
	for _, in := range instrs {
		switch in.Op {
		case ir.OpLoad:
			if d, ok := in.Args[0].(*ir.Instr); ok && d.Op == ir.OpAlloca {
				g.addEdge(idx[d], idx[in], MemoryEdge)
			}
		case ir.OpStore:
			if d, ok := in.Args[1].(*ir.Instr); ok && d.Op == ir.OpAlloca {
				g.addEdge(idx[in], idx[d], MemoryEdge)
			}
		}
	}
	return g
}

// ProGraML is the pointer-IR oracle for ProGraMLFlat.
func ProGraML(m *ir.Module) *Graph {
	instrs, idx := moduleInstrs(m)
	dim := int(ir.NumOpcodes) + 3
	g := &Graph{NodeFeats: featRows(len(instrs), dim)}
	for i, in := range instrs {
		g.NodeFeats[i][in.Op] = 1
	}
	addControlEdges(g, m, idx)

	// Value nodes. Constants are deduplicated by (type,payload); params
	// and globals get one node each.
	valNode := make(map[string]int)
	nodeOf := func(v ir.Value) (int, bool) {
		var key string
		var cat int
		switch x := v.(type) {
		case *ir.Instr:
			return idx[x], true
		case *ir.Const:
			key = "c|" + x.Ty.String() + "|" + x.Ref()
			cat = 0
		case *ir.Param:
			key = fmt.Sprintf("p|%p", x)
			cat = 1
		case *ir.Global:
			key = "g|" + x.Name
			cat = 2
		default:
			return 0, false
		}
		if n, ok := valNode[key]; ok {
			return n, true
		}
		feat := make([]float64, dim)
		feat[int(ir.NumOpcodes)+cat] = 1
		g.NodeFeats = append(g.NodeFeats, feat)
		n := len(g.NodeFeats) - 1
		valNode[key] = n
		return n, true
	}
	for _, f := range m.Functions {
		f.ForEachInstr(func(in *ir.Instr) {
			for _, a := range in.Args {
				if n, ok := nodeOf(a); ok {
					g.addEdge(n, idx[in], DataEdge)
				}
			}
			if in.Op == ir.OpCall && in.Callee != nil && !in.Callee.IsDecl() {
				entry := in.Callee.Entry()
				if len(entry.Instrs) > 0 {
					g.addEdge(idx[in], idx[entry.Instrs[0]], CallEdge)
				}
			}
		})
	}
	return g
}

// Milepost is the pointer-IR oracle for MilepostFlat.
func Milepost(m *ir.Module) Vector {
	const dim = 56
	v := make(Vector, dim)
	set := func(i int, x float64) { v[i] += x }
	totalBlocks, totalEdges := 0, 0
	for _, f := range m.Functions {
		if f.IsDecl() {
			continue
		}
		set(0, 1) // number of functions
		set(1, float64(len(f.Params)))
		nb := len(f.Blocks)
		totalBlocks += nb
		set(2, float64(nb))
		preds := f.Preds()
		for _, b := range f.Blocks {
			np := len(preds[b])
			ns := len(b.Succs())
			totalEdges += ns
			set(3, float64(ns))
			switch {
			case np == 1:
				set(4, 1)
			case np == 2:
				set(5, 1)
			case np > 2:
				set(6, 1)
			}
			switch {
			case ns == 1:
				set(7, 1)
			case ns == 2:
				set(8, 1)
			case ns > 2:
				set(9, 1)
			}
			n := len(b.Instrs)
			switch {
			case n < 15:
				set(10, 1)
			case n <= 500:
				set(11, 1)
			default:
				set(12, 1)
			}
			for _, in := range b.Instrs {
				classifyInstr(in, set)
			}
		}
		dt := ir.NewDomTree(f)
		loops := dt.NaturalLoops()
		set(13, float64(len(loops)))
		for _, l := range loops {
			set(14, float64(len(l.Blocks)))
			if len(l.Blocks) > 8 {
				set(15, 1)
			}
		}
	}
	set(16, float64(len(m.Globals)))
	if totalBlocks > 0 {
		set(17, float64(totalEdges)/float64(totalBlocks))
	}
	return v
}

func classifyInstr(in *ir.Instr, set func(int, float64)) {
	set(18, 1) // total instructions
	switch {
	case in.Op == ir.OpAdd || in.Op == ir.OpSub:
		set(19, 1)
	case in.Op == ir.OpMul:
		set(20, 1)
	case in.Op == ir.OpSDiv || in.Op == ir.OpUDiv || in.Op == ir.OpSRem || in.Op == ir.OpURem:
		set(21, 1)
	case in.Op == ir.OpShl || in.Op == ir.OpLShr || in.Op == ir.OpAShr:
		set(22, 1)
	case in.Op == ir.OpAnd || in.Op == ir.OpOr || in.Op == ir.OpXor:
		set(23, 1)
	case in.Op.IsFloatBinary():
		set(24, 1)
	case in.Op == ir.OpLoad:
		set(25, 1)
	case in.Op == ir.OpStore:
		set(26, 1)
	case in.Op == ir.OpAlloca:
		set(27, 1)
	case in.Op == ir.OpGEP:
		set(28, 1)
	case in.Op == ir.OpPhi:
		set(29, 1)
		set(30, float64(len(in.Args)))
	case in.Op == ir.OpCall:
		set(31, 1)
		if in.Callee == nil {
			set(32, 1) // external/builtin call
		}
		set(33, float64(len(in.Args)))
	case in.Op == ir.OpICmp:
		set(34, 1)
	case in.Op == ir.OpFCmp:
		set(35, 1)
	case in.Op == ir.OpSelect:
		set(36, 1)
	case in.Op.IsCast():
		set(37, 1)
	case in.Op == ir.OpRet:
		set(38, 1)
	case in.Op == ir.OpBr:
		set(39, 1)
	case in.Op == ir.OpCondBr:
		set(40, 1)
	case in.Op == ir.OpSwitch:
		set(41, 1)
		set(42, float64(len(in.SwitchVals)))
	}
	// Operand census.
	for _, a := range in.Args {
		switch x := a.(type) {
		case *ir.Const:
			set(43, 1)
			if !x.Ty.IsFloat() {
				switch x.I {
				case 0:
					set(44, 1)
				case 1:
					set(45, 1)
				}
			} else {
				set(46, 1)
			}
		case *ir.Param:
			set(47, 1)
		case *ir.Global:
			set(48, 1)
		case *ir.Instr:
			set(49, 1)
		}
	}
	if in.Ty.IsFloat() {
		set(50, 1)
	}
	if in.Ty.IsPtr() {
		set(51, 1)
	}
	if in.Ty.IsInt() && in.Ty.Bits == 1 {
		set(52, 1)
	}
	if in.Ty.IsInt() && in.Ty.Bits == 8 {
		set(53, 1)
	}
	if in.Ty.IsInt() && in.Ty.Bits == 64 {
		set(54, 1)
	}
	if in.Ty.IsVoid() {
		set(55, 1)
	}
}

// IR2Vec is the pointer-IR oracle for IR2VecFlat.
func IR2Vec(m *ir.Module) Vector {
	v := make(Vector, ir2vecDim)
	for _, f := range m.Functions {
		f.ForEachInstr(func(in *ir.Instr) {
			acc := seedVec("opc:" + in.Op.String())
			addScaled(v, acc, 1.0)
			addScaled(v, seedVec("ty:"+in.Type().String()), 0.5)
			for _, a := range in.Args {
				addScaled(v, seedVec("arg:"+argKind(a)), 0.2)
			}
			if in.Op == ir.OpICmp || in.Op == ir.OpFCmp {
				addScaled(v, seedVec("pred:"+in.Pred.String()), 0.3)
			}
		})
	}
	return v
}

func argKind(a ir.Value) string {
	switch a.(type) {
	case *ir.Const:
		return "const"
	case *ir.Param:
		return "param"
	case *ir.Global:
		return "global"
	case *ir.Function:
		return "func"
	default:
		return "ssa"
	}
}
