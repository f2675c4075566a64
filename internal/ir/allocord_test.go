package ir_test

import (
	"os"
	"testing"

	"memoir/internal/core"
	"memoir/internal/ir"
	"memoir/internal/parser"
)

func parseHistogram(t *testing.T) *ir.Program {
	t.Helper()
	src, err := os.ReadFile("../../testdata/histogram.mir")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// allocTypes renders fn's allocations by ordinal: entry o is the type
// the allocation with AllocOrdinals ordinal o creates. The ordinals
// must be exactly 0..n-1.
func allocTypes(t *testing.T, fn *ir.Func) []string {
	t.Helper()
	ords := ir.AllocOrdinals(fn)
	out := make([]string, len(ords))
	for in, o := range ords {
		if o < 0 || o >= len(out) || out[o] != "" {
			t.Fatalf("@%s: ordinal %d out of range or repeated", fn.Name, o)
		}
		out[o] = in.Alloc.String()
	}
	return out
}

func sameAllocTypes(t *testing.T, what string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: alloc ordinal count %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s ordinal %d: %s vs %s", what, i, a[i], b[i])
		}
	}
}

// TestAllocOrdinalsStableAcrossReparse: a profile collected on one
// parse applies to a print/re-parse roundtrip of the same program,
// because ordinals depend only on walk order.
func TestAllocOrdinalsStableAcrossReparse(t *testing.T) {
	p1 := parseHistogram(t)
	p2, err := parser.Parse(ir.Print(p1))
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	for _, name := range p1.Order {
		f2 := p2.Funcs[name]
		if f2 == nil {
			t.Fatalf("function @%s lost in roundtrip", name)
		}
		sameAllocTypes(t, "@"+name, allocTypes(t, p1.Funcs[name]), allocTypes(t, f2))
	}
}

// TestAllocOrdinalsStableAcrossClone: ir.CloneFunc preserves walk
// order, so a clone inherits the original's ordinals (how
// interprocedural clones reuse profiles).
func TestAllocOrdinalsStableAcrossClone(t *testing.T) {
	prog := parseHistogram(t)
	for _, name := range prog.Order {
		fn := prog.Funcs[name]
		cl := ir.CloneFunc(fn, name+"$enum")
		sameAllocTypes(t, "@"+name+" clone", allocTypes(t, fn), allocTypes(t, cl))
	}
}

// TestAllocOrdinalsSurviveADE pins the property the telemetry site key
// depends on: the ADE transform inserts translations but never
// allocations, so each allocation instruction keeps its ordinal.
func TestAllocOrdinalsSurviveADE(t *testing.T) {
	prog := parseHistogram(t)
	before := map[*ir.Instr]int{}
	for _, name := range prog.Order {
		for in, o := range ir.AllocOrdinals(prog.Funcs[name]) {
			before[in] = o
		}
	}
	if len(before) == 0 {
		t.Fatal("fixture has no allocations")
	}
	if _, err := core.Apply(prog, core.DefaultOptions()); err != nil {
		t.Fatalf("ade: %v", err)
	}
	after := map[*ir.Instr]int{}
	nAllocs := 0
	for _, name := range prog.Order {
		ords := ir.AllocOrdinals(prog.Funcs[name])
		nAllocs += len(ords)
		for in, o := range ords {
			after[in] = o
		}
	}
	if nAllocs != len(before) {
		t.Fatalf("allocation count changed: %d -> %d", len(before), nAllocs)
	}
	for in, o := range before {
		if after[in] != o {
			t.Fatalf("allocation ordinal moved: %d -> %d", o, after[in])
		}
	}
}
