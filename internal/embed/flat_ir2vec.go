package embed

import (
	"sync"

	"repro/internal/ir"
)

// ir2vecVocab holds the seed vectors of every fixed vocabulary token —
// opcodes, comparison predicates and operand kinds — resolved once, so no
// token string is concatenated or hashed per instruction.
var ir2vecVocab struct {
	once sync.Once
	opc  [ir.NumOpcodes][]float64
	pred [10][]float64
	kind [8][]float64 // indexed by ir.OperandKind
}

func ir2vecVocabInit() {
	for op := ir.Opcode(0); op < ir.NumOpcodes; op++ {
		ir2vecVocab.opc[op] = seedVec("opc:" + op.String())
	}
	for p := range ir2vecVocab.pred {
		ir2vecVocab.pred[p] = seedVec("pred:" + ir.CmpPred(p).String())
	}
	// Operand-kind buckets: instructions (and anything unrecognized) embed
	// as "ssa", exactly like the pointer oracle's default case.
	ssa := seedVec("arg:ssa")
	param := seedVec("arg:param")
	ir2vecVocab.kind[ir.OperInstr] = ssa
	ir2vecVocab.kind[ir.OperBadInstr] = ssa
	ir2vecVocab.kind[ir.OperUnknown] = ssa
	ir2vecVocab.kind[ir.OperConst] = seedVec("arg:const")
	ir2vecVocab.kind[ir.OperParam] = param
	ir2vecVocab.kind[ir.OperBadParam] = param
	ir2vecVocab.kind[ir.OperGlobal] = seedVec("arg:global")
	ir2vecVocab.kind[ir.OperFunc] = seedVec("arg:func")
}

// ir2vecScratch caches the per-type seed vectors of one call, indexed by
// the flat view's type id (the type pool is tiny, so resolving each
// distinct type once per call costs a handful of seedVec cache hits).
type ir2vecScratch struct {
	tyVecs [][]float64
}

var ir2vecPool = sync.Pool{New: func() any { return new(ir2vecScratch) }}

// IR2VecFlat implements the symbolic flavour of IR2Vec: every opcode, type
// and operand kind has a deterministic seed vector; an instruction embeds as
// a weighted sum (w_opc=1, w_type=0.5, w_arg=0.2); the program embedding is
// the sum over all instructions, streamed from the dense instruction table.
func IR2VecFlat(fl *ir.Flat) Vector {
	ir2vecVocab.once.Do(ir2vecVocabInit)
	sc := ir2vecPool.Get().(*ir2vecScratch)
	if cap(sc.tyVecs) < len(fl.Types) {
		sc.tyVecs = make([][]float64, len(fl.Types))
	}
	sc.tyVecs = sc.tyVecs[:len(fl.Types)]
	for i := range sc.tyVecs {
		sc.tyVecs[i] = nil
	}

	v := make(Vector, ir2vecDim)
	n := int32(fl.NumInstrs())
	for i := int32(0); i < n; i++ {
		op := fl.Op(i)
		addScaled(v, ir2vecVocab.opc[op], 1.0)
		tid := fl.Instrs[i].Ty
		tv := sc.tyVecs[tid]
		if tv == nil {
			tv = seedVec("ty:" + fl.TypeStrs[tid])
			sc.tyVecs[tid] = tv
		}
		addScaled(v, tv, 0.5)
		for _, a := range fl.Args(i) {
			addScaled(v, ir2vecVocab.kind[a.Kind], 0.2)
		}
		if op == ir.OpICmp || op == ir.OpFCmp {
			addScaled(v, ir2vecVocab.pred[fl.Instrs[i].Pred], 0.3)
		}
	}
	ir2vecPool.Put(sc)
	return v
}
