package analysis

import "memoir/internal/ir"

// VSet is a set-of-values dataflow fact.
type VSet map[*ir.Value]bool

// Clone copies the set.
func (s VSet) Clone() VSet {
	n := make(VSet, len(s))
	for v := range s {
		n[v] = true
	}
	return n
}

// livenessProblem is classic backward may-liveness: a value is live at
// a point when some path from the point reads it before redefining it.
type livenessProblem struct{}

func (livenessProblem) Direction() Direction { return Backward }

func (livenessProblem) Boundary(*CFG) VSet { return VSet{} }

func (livenessProblem) Copy(f VSet) VSet { return f.Clone() }

func (livenessProblem) Join(dst, src VSet) (VSet, bool) {
	changed := false
	for v := range src {
		if !dst[v] {
			dst[v] = true
			changed = true
		}
	}
	return dst, changed
}

func (livenessProblem) Step(s Step, f VSet) VSet {
	for _, d := range s.Defs(nil) {
		delete(f, d)
	}
	for _, u := range s.Uses(nil) {
		f[u] = true
	}
	return f
}

func (livenessProblem) PhiDef(phis []*ir.Instr, f VSet) VSet {
	for _, p := range phis {
		for _, r := range p.Results {
			delete(f, r)
		}
	}
	return f
}

func (livenessProblem) PhiArg(phis []*ir.Instr, j int, f VSet) VSet {
	for _, p := range phis {
		if j >= len(p.Args) {
			continue
		}
		a := p.Args[j]
		if a.Base != nil && a.Base.Kind != ir.VConst {
			f[a.Base] = true
		}
		for _, ix := range a.Path {
			if ix.Kind == ir.IdxValue && ix.Val != nil && ix.Val.Kind != ir.VConst {
				f[ix.Val] = true
			}
		}
	}
	return f
}

// LivenessInfo holds the liveness solution of one function plus a
// per-definition annotation: is the value live immediately after its
// defining step?
type LivenessInfo struct {
	Sol       *Solution[VSet]
	liveAfter map[*ir.Value]bool
	// liveOutAt keeps the full live set immediately after each
	// collection-update step; DeadUpdates needs whole-web liveness, not
	// just the result's, because collections have reference semantics.
	liveOutAt map[*ir.Instr]VSet
}

// Liveness computes liveness for fn.
func Liveness(fn *ir.Func) *LivenessInfo { return LivenessOf(NewCFG(fn)) }

// LivenessOf computes liveness over an existing CFG.
func LivenessOf(c *CFG) *LivenessInfo {
	sol := Solve[VSet](c, livenessProblem{})
	li := &LivenessInfo{
		Sol: sol, liveAfter: map[*ir.Value]bool{},
		liveOutAt: map[*ir.Instr]VSet{},
	}
	var p livenessProblem
	for _, b := range c.Blocks {
		if !sol.Reached[b.ID] || sol.Out[b.ID] == nil {
			continue
		}
		f := sol.Out[b.ID].Clone()
		for i := len(b.Steps) - 1; i >= 0; i-- {
			s := b.Steps[i]
			if s.Kind == StepInstr && s.Instr.Op.IsUpdate() {
				li.liveOutAt[s.Instr] = f.Clone()
			}
			for _, d := range s.Defs(nil) {
				li.liveAfter[d] = li.liveAfter[d] || f[d]
			}
			f = p.Step(s, f)
		}
		// Phi results: their "after" point is the block entry fact
		// before the kill.
		for _, ph := range b.Phis {
			for _, r := range ph.Results {
				li.liveAfter[r] = li.liveAfter[r] || f[r]
			}
		}
	}
	return li
}

// LiveAfterDef reports whether v is live immediately after its
// definition on some path.
func (li *LivenessInfo) LiveAfterDef(v *ir.Value) bool { return li.liveAfter[v] }

// DeadUpdates returns collection-update instructions that no later code
// can observe: dead stores (ADE002 candidates).
//
// Collections have reference semantics — an update mutates shared state
// visible through every SSA name of the same redefinition web — so an
// unused update result alone proves nothing. A root-level update is
// dead only when the updated collection is rooted exclusively at local
// allocations that never escape the function, and no member of those
// allocations' redef webs is live after the update. Parameter-rooted
// webs (the caller observes the mutation), nested-path updates and
// read-result aliases (the store is reachable through the enclosing
// collection), and escaping webs are all skipped.
//
// ui and esc may be nil; they are computed on demand.
func (li *LivenessInfo) DeadUpdates(ui *ir.UseInfo, esc *EscapeInfo) []*ir.Instr {
	fn := li.Sol.CFG.Fn
	if ui == nil {
		ui = ir.ComputeUses(fn)
	}
	if esc == nil {
		esc = Escapes(fn, ui)
	}
	webs := map[*ir.Value][]*ir.Value{} // alloc root -> redef web
	rootsOf := map[*ir.Value][]*ir.Value{}
	paramWeb := map[*ir.Value]bool{}
	for _, p := range fn.Params {
		if ir.AsColl(p.Type) == nil {
			continue
		}
		for _, v := range ui.RedefsFrom(p) {
			paramWeb[v] = true
		}
	}
	for _, a := range ir.Allocations(fn) {
		r := a.Result()
		if r == nil {
			continue
		}
		web := ui.RedefsFrom(r)
		webs[r] = web
		for _, v := range web {
			rootsOf[v] = append(rootsOf[v], r)
		}
	}
	var out []*ir.Instr
	for _, b := range li.Sol.CFG.Blocks {
		for _, s := range b.Steps {
			if s.Kind != StepInstr || !s.Instr.Op.IsUpdate() {
				continue
			}
			in := s.Instr
			base := in.Args[0].Base
			if base == nil || len(in.Args[0].Path) != 0 {
				continue
			}
			roots := rootsOf[base]
			if len(roots) == 0 || paramWeb[base] {
				continue
			}
			dead := true
			for _, r := range roots {
				if esc.Reason(r, 0) != "" {
					dead = false
					break
				}
				for _, v := range webs[r] {
					if li.liveOutAt[in][v] {
						dead = false
						break
					}
				}
				if !dead {
					break
				}
			}
			if dead {
				out = append(out, in)
			}
		}
	}
	return out
}

// DeadDefs returns every instruction-defined value that is never live
// after its definition (used by the property tests: the interpreter
// must never read such a value).
func (li *LivenessInfo) DeadDefs() []*ir.Value {
	var out []*ir.Value
	for _, b := range li.Sol.CFG.Blocks {
		for _, ph := range b.Phis {
			for _, r := range ph.Results {
				if !li.liveAfter[r] {
					out = append(out, r)
				}
			}
		}
		for _, s := range b.Steps {
			if s.Kind != StepInstr {
				continue
			}
			for _, r := range s.Instr.Results {
				if !li.liveAfter[r] {
					out = append(out, r)
				}
			}
		}
	}
	return out
}
