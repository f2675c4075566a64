package analysis

import (
	"fmt"

	"memoir/internal/collections"
	"memoir/internal/ir"
)

// StaticDenseLimit bounds the key interval a site may span and still
// count as "statically dense": Keys ⊆ [0, StaticDenseLimit) qualifies
// a site for ADE009 and for internal/core's static-enum sub-pass.
const StaticDenseLimit = 1024

// Lint runs every adelint diagnostic over p and returns the findings
// sorted for stable output.
func Lint(p *ir.Program) []Diagnostic {
	out := CheckPragmas(p)
	ivs := IntervalsOf(p)
	for _, name := range p.Order {
		fn := p.Funcs[name]
		out = append(out, lintFunc(fn, ivs.Func(fn))...)
	}
	SortDiagnostics(out)
	return out
}

func lintFunc(fn *ir.Func, fi *FuncIntervals) []Diagnostic {
	var out []Diagnostic
	diag := func(code string, pos int, format string, args ...any) {
		out = append(out, Diagnostic{
			Code: code, Severity: SeverityOf(code),
			Fn: fn.Name, Line: pos, Msg: fmt.Sprintf(format, args...),
		})
	}

	c := NewCFG(fn)

	// ADE001: use before definite assignment.
	for _, u := range UseBeforeDef(c) {
		diag(ADE001, u.Pos, "%%%s may be used before it is defined", u.Val.Name)
	}

	// ADE002: dead collection stores.
	ui := ir.ComputeUses(fn)
	li := LivenessOf(c)
	for _, in := range li.DeadUpdates(ui, nil) {
		name := "?"
		if in.Args[0].Base != nil {
			name = in.Args[0].Base.Name
		}
		diag(ADE002, in.Pos, "%s to %%%s is never observed (dead store)", in.Op, name)
	}

	// ADE003: residual translation chains.
	for _, r := range FuncResiduals(fn) {
		diag(ADE003, r.Pos, "residual translation %s: redundant-translation elimination should remove this", r.Kind)
	}

	// ADE004: enumerations allocated but never used. Deliberately
	// limited to local `new Enum` allocations: ADE's own output loads
	// class globals (enumglobal) per function whether or not that
	// function touches them, and flagging those would make every
	// post-ADE program lint-dirty.
	ir.WalkInstrs(fn, func(in *ir.Instr) {
		if in.Op != ir.OpNewEnum {
			return
		}
		r := in.Result()
		if r == nil || len(ui.Uses(r)) > 0 {
			return
		}
		diag(ADE004, in.Pos, "enumeration %%%s is never used", r.Name)
	})

	// ADE006: conditions the interval analysis proves constant. Only
	// reached conditions are recorded, so a constant condition nested
	// under another dead branch does not cascade.
	for _, cf := range fi.Conds() {
		cv, ok := cf.Iv.Const()
		if !ok {
			continue
		}
		name := "condition"
		if cf.Cond != nil && cf.Cond.Kind != ir.VConst {
			name = "%" + cf.Cond.Name
		} else if cf.Cond != nil && cf.Cond.Kind == ir.VConst {
			continue // a literal true/false is deliberate, not a finding
		}
		switch {
		case cf.Loop && cv == 0:
			diag(ADE006, cf.Pos, "loop condition %s is always false: the body runs exactly once", name)
		case cf.Loop:
			diag(ADE006, cf.Pos, "loop condition %s is always true: the loop never exits", name)
		case cv == 0:
			diag(ADE006, cf.Pos, "%s is always false: the then branch is dead", name)
		default:
			diag(ADE006, cf.Pos, "%s is always true: the else branch is dead", name)
		}
	}

	// ADE007: lookups that provably never hit, and ADE008: for-each
	// loops over provably empty collections. Both need an exact site
	// summary: every flow into the collection was tracked.
	ir.WalkInstrs(fn, func(in *ir.Instr) {
		if (in.Op != ir.OpRead && in.Op != ir.OpHas) || len(in.Args) != 2 {
			return
		}
		if len(in.Args[0].Path) != 0 || in.Args[0].Base == nil || len(in.Args[1].Path) != 0 {
			return
		}
		s := fi.Site(fi.OriginOf(in.Args[0].Base))
		if s == nil || !s.Exact {
			return
		}
		coll := in.Args[0].Base.Name
		if s.AddPoints == 0 {
			diag(ADE007, in.Pos, "%s on %%%s never hits: nothing is ever inserted at its allocation site", in.Op, coll)
			return
		}
		key := fi.ValueAt(in, in.Args[1].Base)
		if _, overlap := meetIv(key, s.Keys); !overlap {
			diag(ADE007, in.Pos, "%s on %%%s never hits: key range %v is disjoint from inserted range %v", in.Op, coll, key, s.Keys)
		}
	})
	ir.WalkNodes(fn.Body, func(n ir.Node) {
		fe, ok := n.(*ir.ForEach)
		if !ok || len(fe.Coll.Path) != 0 || fe.Coll.Base == nil {
			return
		}
		s := fi.Site(fi.OriginOf(fe.Coll.Base))
		if s == nil || !s.Exact || s.AddPoints != 0 {
			return
		}
		diag(ADE008, fe.Pos, "for-each over %%%s never runs: the collection is provably empty", fe.Coll.Base.Name)
	})

	// ADE009: statically dense sites with no directive. Only fires on
	// un-lowered sources (no implementation selected yet): ADE's own
	// output has already made the layout decision.
	for _, s := range fi.sites {
		ct := ir.AsColl(s.Alloc.Alloc)
		if ct == nil || ct.Sel != collections.ImplNone || s.Alloc.Dir != nil {
			continue
		}
		if !s.Exact || s.AddPoints == 0 || !s.hasKeys {
			continue
		}
		if !enumerableDomain(ct.Key) || isFloatType(ct.Key) {
			continue
		}
		if !s.Keys.Within(0, StaticDenseLimit-1) {
			continue
		}
		name := "?"
		if r := s.Alloc.Result(); r != nil {
			name = r.Name
		}
		diag(ADE009, s.Alloc.Pos, "keys of %%%s are provably dense in %v; `#pragma ade enumerate` would guarantee the dense layout", name, s.Keys)
	}

	SortDiagnostics(out)
	return out
}
