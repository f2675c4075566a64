package main

import (
	"fmt"

	"memoir/internal/bytecode"
	"memoir/internal/collections"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/parser"
	"memoir/internal/remarks"
)

// answer is a program's observable result: what the tree interpreter
// returns and emits for the untransformed program.
type answer struct {
	Result string
	Count  uint64
	Sum    uint64
}

func (a answer) String() string {
	return fmt.Sprintf("ret=%s emits=%d sum=%#x", a.Result, a.Count, a.Sum)
}

// reference runs text untransformed on the tree interpreter.
func reference(text string, args []uint64) (answer, *interp.Stats, error) {
	prog, err := parser.Parse(text)
	if err != nil {
		return answer{}, nil, err
	}
	if err := ir.Verify(prog); err != nil {
		return answer{}, nil, err
	}
	ip := interp.New(prog, interp.DefaultOptions())
	vals := make([]interp.Val, len(args))
	for i, a := range args {
		vals[i] = interp.IntV(a)
	}
	ret, err := ip.Run("main", vals...)
	if err != nil {
		return answer{}, nil, err
	}
	st := ip.Stats
	return answer{ret.String(), st.EmitCount, st.EmitSum}, st, nil
}

// compileOpts selects the pipeline a caller replays: the suite's
// (text → parse → verify → ADE → bytecode) or the server's, which
// also hashes the program, sandboxes ADE and re-verifies after it.
type compileOpts struct {
	ade    bool
	server bool
	counts map[string]float64 // per-layer counts, filled when non-nil
	tr     *tracer
	parent int
	req    int64
	weight float64 // how many served requests this compile stands for
}

// compile runs a program text through the pipeline, one span per
// layer call.
func compile(text string, o compileOpts) (*ir.Program, *bytecode.Prog, error) {
	tr := o.tr
	sp := tr.begin("parse", o.parent, o.req)
	prog, err := parser.Parse(text)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	sp = tr.begin("ir.verify", o.parent, o.req)
	err = ir.Verify(prog)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("verify: %w", err)
	}
	if o.server {
		sp = tr.begin("ir.hash", o.parent, o.req)
		ir.ProgramHash(prog)
		tr.end(sp)
	}
	if o.ade {
		opts := core.DefaultOptions()
		opts.Sandbox = o.server
		var em *remarks.Emitter
		if tr != nil {
			em = remarks.NewEmitter()
			opts.Remarks = em
		}
		sp = tr.begin("ade", o.parent, o.req)
		rep, err := core.Apply(prog, opts)
		tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("ade: %w", err)
		}
		if em != nil {
			at := tr.startOf(sp)
			for _, p := range em.Phases {
				at = tr.record("ade."+p.Name, sp, o.req, at, p.Duration)
			}
		}
		if o.counts != nil {
			w := o.weight
			o.counts["ade.classes"] += w * float64(len(rep.Classes))
			o.counts["ade.static_sites"] += w * float64(len(rep.Static))
			o.counts["ade.rewrites"] += w * float64(rep.Rewrites)
			if em != nil && len(em.Phases) > 0 {
				o.counts["ade.ir_before"] += w * float64(em.Phases[0].IRBefore)
				o.counts["ade.ir_after"] += w * float64(em.Phases[len(em.Phases)-1].IRAfter)
			}
		}
		if o.server {
			sp = tr.begin("ir.verify", o.parent, o.req)
			err = ir.Verify(prog)
			tr.end(sp)
			if err != nil {
				return nil, nil, fmt.Errorf("verify after ADE: %w", err)
			}
		}
	}
	sp = tr.begin("bc.compile", o.parent, o.req)
	bc, err := bytecode.Compile(prog)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("bytecode: %w", err)
	}
	sp = tr.begin("bc.verify", o.parent, o.req)
	err = bytecode.Verify(bc)
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("bytecode verify: %w", err)
	}
	if o.counts != nil {
		var n int
		for _, f := range bc.Funcs {
			n += len(f.Code)
		}
		o.counts["bc.instrs"] += o.weight * float64(n)
	}
	return prog, bc, nil
}

// adePhases are the ADE sub-passes, in pipeline order, as the
// remarks.Emitter names them.
var adePhases = []string{"use-analysis", "static-enum", "candidate-formation",
	"interprocedural-unification", "union-safety", "transform"}

const numImpls = interp.NImpls

// implName names row i of interp.Stats.Counts; enumeration
// translations count under the last (pseudo-)implementation.
func implName(i int) string {
	if i == int(interp.ImplEnum) {
		return "Enum"
	}
	return collections.Impl(i).String()
}

// addCollCounts folds one execution's collection-runtime counts into
// counts, weighted by w.
func addCollCounts(counts map[string]float64, st *interp.Stats, w float64) {
	counts["vm.steps"] += w * float64(st.Steps)
	counts["coll.sparse_ops"] += w * float64(st.Sparse)
	counts["coll.dense_ops"] += w * float64(st.Dense)
	for i := 1; i < numImpls; i++ { // row 0 (no implementation) holds scalar steps
		var n uint64
		for _, c := range st.Counts[i] {
			n += c
		}
		counts["coll.ops."+implName(i)] += w * float64(n)
	}
	enum := st.Counts[interp.ImplEnum]
	counts["coll.enc"] += w * float64(enum[interp.OKEnc])
	counts["coll.dec"] += w * float64(enum[interp.OKDec])
	counts["coll.add"] += w * float64(enum[interp.OKAdd])
}
