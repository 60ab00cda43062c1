package embed

import (
	"sync"

	"repro/internal/ir"
)

// milepostScratch holds the per-function CFG analysis arrays of
// MilepostFlat: reverse postorder, dominators and natural-loop membership
// computed over int32 block indices instead of the map-based ir.DomTree.
// All slices are function-local (indexed by block position within the
// function) and recycled through milepostPool.
type milepostScratch struct {
	post     []int32 // postorder collection, reversed in place into RPO
	order    []int32 // block -> RPO position, -1 if unreachable
	idom     []int32 // block -> immediate dominator, -1 = none/entry
	predOff  []int32 // counting-sort offsets into predList (len nb+1)
	predList []int32
	stack    []int32 // DFS / loop-body worklist
	frameB   []int32 // DFS frame: block
	frameI   []int32 // DFS frame: next successor ordinal
	backH    []int32 // back-edge headers, in discovery order
	backL    []int32 // back-edge latches, parallel to backH
	stamp    []int32 // block -> loop id of the loop body being built
	loopOf   []int32 // header block -> loop id, 0 = not a header
}

var milepostPool = sync.Pool{New: func() any { return new(milepostScratch) }}

// MilepostFlat computes a Milepost-GCC-style vector of 56 static code
// features (instruction category counts, CFG shape, loop structure, memory
// traffic), with the dominator tree and natural loops computed on index
// arrays drawn from a sync.Pool instead of per-call maps.
func MilepostFlat(fl *ir.Flat) Vector {
	const dim = 56
	v := make(Vector, dim)
	set := func(i int, x float64) { v[i] += x }
	sc := milepostPool.Get().(*milepostScratch)
	totalBlocks, totalEdges := 0, 0
	for fi := range fl.Funcs {
		f := &fl.Funcs[fi]
		if f.IsDecl() {
			continue
		}
		set(0, 1) // number of functions
		set(1, float64(f.NumParams()))
		nb := int(f.Blk1 - f.Blk0)
		totalBlocks += nb
		set(2, float64(nb))

		// Per-edge predecessor counts (f.Preds lists a block once per
		// incoming edge, duplicate successors included).
		sc.predOff = grabI32(sc.predOff, nb+1, 0)
		npred := 0
		for lb := 0; lb < nb; lb++ {
			for _, s := range fl.BlockSuccs(f.Blk0 + int32(lb)) {
				sc.predOff[s-f.Blk0]++
				npred++
			}
		}
		for lb := 0; lb < nb; lb++ {
			b := &fl.Blocks[f.Blk0+int32(lb)]
			np := int(sc.predOff[lb])
			ns := len(fl.BlockSuccs(f.Blk0 + int32(lb)))
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
			n := int(b.Ins1 - b.Ins0)
			switch {
			case n < 15:
				set(10, 1)
			case n <= 500:
				set(11, 1)
			default:
				set(12, 1)
			}
			for i := b.Ins0; i < b.Ins1; i++ {
				classifyInstrFlat(fl, i, set)
			}
		}

		nLoops, loopSizes := flatLoops(fl, f, sc, npred)
		set(13, float64(nLoops))
		for _, sz := range loopSizes {
			set(14, float64(sz))
			if sz > 8 {
				set(15, 1)
			}
		}
	}
	set(16, float64(len(fl.Mod.Globals)))
	if totalBlocks > 0 {
		set(17, float64(totalEdges)/float64(totalBlocks))
	}
	milepostPool.Put(sc)
	return v
}

// flatLoops computes the natural loops of f (the flat twin of
// ir.DomTree.NaturalLoops): back edges latch->header where the header
// dominates the latch, bodies collected by backward walks over reachable
// predecessors, loops merged by header in discovery order. It returns the
// loop count and the body size of each loop (all Milepost consumes).
// npred is the function's total CFG edge count, from the caller's
// pred-counting pass (sc.predOff holds the per-block counts on entry).
func flatLoops(fl *ir.Flat, f *ir.FlatFunc, sc *milepostScratch, npred int) (int, []int32) {
	nb := int(f.Blk1 - f.Blk0)
	if nb == 0 {
		return 0, nil
	}
	// Counting-sort the predecessor lists from the per-block counts.
	sc.predList = grabI32(sc.predList, npred, 0)
	off := 0
	for lb := 0; lb <= nb; lb++ {
		var c int32
		if lb < nb {
			c = sc.predOff[lb]
		}
		sc.predOff[lb] = int32(off)
		off += int(c)
	}
	for lb := 0; lb < nb; lb++ {
		for _, s := range fl.BlockSuccs(f.Blk0 + int32(lb)) {
			sl := s - f.Blk0
			sc.predList[sc.predOff[sl]] = int32(lb)
			sc.predOff[sl]++
		}
	}
	// predOff[lb] now ends lb's span; shift back to starts.
	for lb := nb; lb > 0; lb-- {
		sc.predOff[lb] = sc.predOff[lb-1]
	}
	sc.predOff[0] = 0

	// Reverse postorder via iterative DFS from the entry block.
	sc.order = grabI32(sc.order, nb, -1)
	sc.post = sc.post[:0]
	sc.frameB = append(sc.frameB[:0], 0)
	sc.frameI = append(sc.frameI[:0], 0)
	sc.order[0] = 0 // mark seen; real positions assigned after reversal
	for len(sc.frameB) > 0 {
		top := len(sc.frameB) - 1
		b := sc.frameB[top]
		succs := fl.BlockSuccs(f.Blk0 + b)
		if i := sc.frameI[top]; int(i) < len(succs) {
			sc.frameI[top]++
			s := succs[i] - f.Blk0
			if sc.order[s] == -1 {
				sc.order[s] = 0
				sc.frameB = append(sc.frameB, s)
				sc.frameI = append(sc.frameI, 0)
			}
			continue
		}
		sc.post = append(sc.post, b)
		sc.frameB = sc.frameB[:top]
		sc.frameI = sc.frameI[:top]
	}
	// Every block pushed during the DFS ends up in post, so each seen
	// block's 0 marker is replaced by its real RPO position here and
	// unreachable blocks keep -1.
	nr := len(sc.post) // reachable block count
	for i, b := range sc.post {
		sc.order[b] = int32(nr - 1 - i)
	}
	rpo := grabI32(sc.stack, nr, 0) // reuse stack's backing for rpo
	for i, b := range sc.post {
		rpo[nr-1-i] = b
	}

	// Cooper-Harvey-Kennedy iteration. idom[entry] = entry while
	// iterating (so entry terminates intersect walks), -1 afterwards.
	sc.idom = grabI32(sc.idom, nb, -1)
	sc.idom[0] = 0
	intersect := func(a, b int32) int32 {
		for a != b {
			for sc.order[a] > sc.order[b] {
				if sc.idom[a] == -1 {
					return b
				}
				a = sc.idom[a]
			}
			for sc.order[b] > sc.order[a] {
				if sc.idom[b] == -1 {
					return a
				}
				b = sc.idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			newIDom := int32(-1)
			for _, p := range sc.predList[sc.predOff[b]:sc.predOff[b+1]] {
				if sc.idom[p] == -1 {
					continue
				}
				if newIDom == -1 {
					newIDom = p
				} else {
					newIDom = intersect(p, newIDom)
				}
			}
			if newIDom != -1 && sc.idom[b] != newIDom {
				sc.idom[b] = newIDom
				changed = true
			}
		}
	}
	sc.idom[0] = -1
	dominates := func(a, b int32) bool {
		for b != -1 {
			if a == b {
				return true
			}
			b = sc.idom[b]
		}
		return false
	}

	// Back edges in RPO-scan order (duplicate successors give duplicate
	// latch entries, matching the pointer version).
	sc.backH = sc.backH[:0]
	sc.backL = sc.backL[:0]
	for _, b := range rpo {
		for _, s := range fl.BlockSuccs(f.Blk0 + b) {
			sl := s - f.Blk0
			if dominates(sl, b) {
				sc.backH = append(sc.backH, sl)
				sc.backL = append(sc.backL, b)
			}
		}
	}
	if len(sc.backH) == 0 {
		sc.stack = rpo[:0]
		return 0, nil
	}

	// Group back edges by header (first-seen order) and build each loop
	// body with one stamp array: since each loop is completed before the
	// next begins, stamp value loopID+1 marks membership unambiguously.
	// The final body sets equal the pointer version's (set union over
	// backward walks is order-independent), and Milepost only consumes
	// their sizes.
	sc.stamp = grabI32(sc.stamp, nb, 0)
	sc.loopOf = grabI32(sc.loopOf, nb, 0)
	nLoops := 0
	for _, h := range sc.backH {
		if sc.loopOf[h] == 0 {
			nLoops++
			sc.loopOf[h] = int32(nLoops)
		}
	}
	sizes := sc.post[:0] // post is dead; reuse for the per-loop sizes
	for id := int32(1); id <= int32(nLoops); id++ {
		var header int32 = -1
		for _, h := range sc.backH {
			if sc.loopOf[h] == id {
				header = h
				break
			}
		}
		sc.stamp[header] = id
		size := int32(1)
		work := sc.frameB[:0]
		for k, h := range sc.backH {
			if h != header {
				continue
			}
			work = append(work, sc.backL[k])
			for len(work) > 0 {
				x := work[len(work)-1]
				work = work[:len(work)-1]
				if sc.stamp[x] == id {
					continue
				}
				sc.stamp[x] = id
				size++
				for _, p := range sc.predList[sc.predOff[x]:sc.predOff[x+1]] {
					if sc.order[p] != -1 { // reachable predecessors only
						work = append(work, p)
					}
				}
			}
		}
		sc.frameB = work[:0]
		sizes = append(sizes, size)
	}
	sc.post = sizes
	sc.stack = rpo[:0]
	return nLoops, sizes
}

// classifyInstrFlat adds instruction i's category and operand-census
// features.
func classifyInstrFlat(fl *ir.Flat, i int32, set func(int, float64)) {
	set(18, 1) // total instructions
	op := fl.Op(i)
	row := &fl.Instrs[i]
	switch {
	case op == ir.OpAdd || op == ir.OpSub:
		set(19, 1)
	case op == ir.OpMul:
		set(20, 1)
	case op == ir.OpSDiv || op == ir.OpUDiv || op == ir.OpSRem || op == ir.OpURem:
		set(21, 1)
	case op == ir.OpShl || op == ir.OpLShr || op == ir.OpAShr:
		set(22, 1)
	case op == ir.OpAnd || op == ir.OpOr || op == ir.OpXor:
		set(23, 1)
	case op.IsFloatBinary():
		set(24, 1)
	case op == ir.OpLoad:
		set(25, 1)
	case op == ir.OpStore:
		set(26, 1)
	case op == ir.OpAlloca:
		set(27, 1)
	case op == ir.OpGEP:
		set(28, 1)
	case op == ir.OpPhi:
		set(29, 1)
		set(30, float64(len(fl.Args(i))))
	case op == ir.OpCall:
		set(31, 1)
		if row.Aux < 0 {
			set(32, 1) // external/builtin call
		}
		set(33, float64(len(fl.Args(i))))
	case op == ir.OpICmp:
		set(34, 1)
	case op == ir.OpFCmp:
		set(35, 1)
	case op == ir.OpSelect:
		set(36, 1)
	case op.IsCast():
		set(37, 1)
	case op == ir.OpRet:
		set(38, 1)
	case op == ir.OpBr:
		set(39, 1)
	case op == ir.OpCondBr:
		set(40, 1)
	case op == ir.OpSwitch:
		set(41, 1)
		set(42, float64(len(fl.InstrSwitchVals(i))))
	}
	// Operand census.
	for _, a := range fl.Args(i) {
		switch a.Kind {
		case ir.OperConst:
			set(43, 1)
			c := &fl.Consts[a.Idx]
			if !fl.Types[c.Ty].IsFloat() {
				switch c.I {
				case 0:
					set(44, 1)
				case 1:
					set(45, 1)
				}
			} else {
				set(46, 1)
			}
		case ir.OperParam, ir.OperBadParam:
			set(47, 1)
		case ir.OperGlobal:
			set(48, 1)
		case ir.OperInstr, ir.OperBadInstr:
			set(49, 1)
		}
	}
	ty := fl.Types[row.Ty]
	if ty.IsFloat() {
		set(50, 1)
	}
	if ty.IsPtr() {
		set(51, 1)
	}
	if ty.IsInt() && ty.Bits == 1 {
		set(52, 1)
	}
	if ty.IsInt() && ty.Bits == 8 {
		set(53, 1)
	}
	if ty.IsInt() && ty.Bits == 64 {
		set(54, 1)
	}
	if ty.IsVoid() {
		set(55, 1)
	}
}
