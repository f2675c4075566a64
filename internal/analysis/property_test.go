// Property tests: the dataflow analyses against runtime ground truth.
// The generator family behind internal/core's fuzz tests provides the
// program distribution; the interpreter's TrackReads mode provides the
// oracle. An external test package is used so internal/core (which
// imports internal/analysis) can be exercised without a cycle.
package analysis_test

import (
	"testing"

	"memoir/internal/analysis"
	"memoir/internal/bench"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/ir"
)

const propertySeeds = 40

// runTracked executes a generated program on the interpreter with read
// tracking and returns the set of SSA values it read.
func runTracked(t *testing.T, prog *ir.Program, seed int64) map[*ir.Value]bool {
	t.Helper()
	opts := interp.DefaultOptions()
	opts.MemSampleEvery = 1 << 30
	opts.TrackReads = true
	ip := interp.New(prog, opts)
	c := ip.NewColl(ir.SeqOf(ir.TU64)).(interp.RSeq)
	for _, k := range core.FuzzInput(seed) {
		c.Append(interp.IntV(k))
	}
	if _, err := ip.Run("main", interp.CollV(c.(interp.Coll))); err != nil {
		t.Fatalf("seed %d: run: %v", seed, err)
	}
	reads := ip.ReadValues()
	if reads == nil {
		t.Fatalf("seed %d: read tracking not active", seed)
	}
	return reads
}

// deadDefs collects every value liveness declares dead after its
// definition, across all functions of prog.
func deadDefs(prog *ir.Program) []*ir.Value {
	var dead []*ir.Value
	for _, name := range prog.Order {
		li := analysis.Liveness(prog.Funcs[name])
		dead = append(dead, li.DeadDefs()...)
	}
	return dead
}

// TestLivenessRuntimeGroundTruth: a value liveness declares dead after
// its definition is never read by the interpreter — on the generated
// program both as written and after the ADE transformation.
func TestLivenessRuntimeGroundTruth(t *testing.T) {
	for seed := int64(1); seed <= propertySeeds; seed++ {
		for _, ade := range []bool{false, true} {
			prog := core.GenerateProgram(seed)
			if ade {
				if _, err := core.Apply(prog, core.DefaultOptions()); err != nil {
					t.Fatalf("seed %d: ade: %v", seed, err)
				}
			}
			dead := deadDefs(prog)
			reads := runTracked(t, prog, seed)
			for _, v := range dead {
				if reads[v] {
					t.Errorf("seed %d (ade=%v): liveness-dead value %%%s was read at runtime", seed, ade, v.Name)
				}
			}
		}
	}
}

// TestLintErrorFreeGeneratedPrograms: verifier-clean generated programs
// carry no error-grade diagnostics (ADE001/ADE005), before and after
// ADE, and RTE leaves no ADE003 residues behind. Programs that lint
// clean of errors must also run cleanly on both engines with agreeing
// checksums — adelint never rejects a program the engines accept.
func TestLintErrorFreeGeneratedPrograms(t *testing.T) {
	opts := interp.DefaultOptions()
	opts.MemSampleEvery = 1 << 30
	for seed := int64(1); seed <= propertySeeds; seed++ {
		prog := core.GenerateProgram(seed)
		if ds := analysis.Lint(prog); analysis.HasErrors(ds) {
			t.Fatalf("seed %d: error diagnostics on a verifier-clean program: %v", seed, ds)
		}
		if _, err := core.Apply(prog, core.DefaultOptions()); err != nil {
			t.Fatalf("seed %d: ade: %v", seed, err)
		}
		ds := analysis.Lint(prog)
		if analysis.HasErrors(ds) {
			t.Fatalf("seed %d: error diagnostics after ADE: %v", seed, ds)
		}
		for _, d := range ds {
			if d.Code == analysis.ADE003 {
				t.Errorf("seed %d: residual translation survived RTE: %v", seed, d)
			}
		}
		var sums [2]uint64
		for i, eng := range []bench.Engine{bench.EngineInterp, bench.EngineVM} {
			m, err := bench.NewMachine(prog, opts, eng)
			if err != nil {
				t.Fatalf("seed %d: %v engine: %v", seed, eng, err)
			}
			c := m.NewColl(ir.SeqOf(ir.TU64)).(interp.RSeq)
			for _, k := range core.FuzzInput(seed) {
				c.Append(interp.IntV(k))
			}
			ret, err := m.Run("main", interp.CollV(c.(interp.Coll)))
			if err != nil {
				t.Fatalf("seed %d: run on %v: %v", seed, eng, err)
			}
			sums[i] = ret.I + m.Stats().EmitSum
		}
		if sums[0] != sums[1] {
			t.Errorf("seed %d: engines disagree: interp %d, vm %d", seed, sums[0], sums[1])
		}
	}
}

// TestResidualsWithRTEDisabled: the fig. 7a ablation. With
// redundant-translation elimination off, the transformed suite must
// contain translation chains the residual analysis flags — the very
// chains RTE exists to remove — while the default pipeline leaves none.
func TestResidualsWithRTEDisabled(t *testing.T) {
	opts := core.DefaultOptions()
	opts.RTE = false
	total := 0
	for _, s := range bench.All() {
		prog := s.Build("")
		if _, err := core.Apply(prog, opts); err != nil {
			t.Fatalf("%s: ade: %v", s.Abbr, err)
		}
		total += len(analysis.Residuals(prog))
	}
	if total == 0 {
		t.Fatal("RTE disabled, yet no residual translations were flagged anywhere in the suite")
	}
}
