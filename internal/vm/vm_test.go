package vm_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"memoir/internal/adeprofile"
	"memoir/internal/bench"
	"memoir/internal/bytecode"
	"memoir/internal/collections"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/telemetry"
	"memoir/internal/vm"
)

// parityConfig is one engine-diff column: how to transform the program
// and which implementation defaults to run it under.
type parityConfig struct {
	name    string
	ade     *core.Options
	defSet  collections.Impl
	defMap  collections.Impl
	memEach int // MemSampleEvery; 0 = interpreter default (512)
	// Optional execution budgets (0 = unlimited). Exhaustion is fine —
	// assertParity then requires both engines to return the identical
	// structured error — so fuzz harnesses can cap runaway programs.
	maxSteps uint64
	maxBytes int64
}

func parityConfigs() []parityConfig {
	ade := func(name string) *core.Options {
		for _, no := range core.OptionsMatrix() {
			if no.Name == name {
				o := no.Opts
				return &o
			}
		}
		panic("unknown ade config " + name)
	}
	return []parityConfig{
		{name: "baseline-hash"},
		{name: "baseline-swiss", defSet: collections.ImplSwissSet, defMap: collections.ImplSwissMap},
		{name: "baseline-flat", defSet: collections.ImplFlatSet},
		{name: "ade", ade: ade("ade")},
		{name: "ade-sparse", ade: ade("ade-sparse")},
		{name: "ade-force", ade: ade("ade-force")},
	}
}

func (c parityConfig) opts() interp.Options {
	o := interp.DefaultOptions()
	if c.defSet != collections.ImplNone {
		o.DefaultSet = c.defSet
	}
	if c.defMap != collections.ImplNone {
		o.DefaultMap = c.defMap
	}
	if c.memEach != 0 {
		o.MemSampleEvery = c.memEach
	}
	o.MaxSteps = c.maxSteps
	o.MaxBytes = c.maxBytes
	o.RecordOutput = true
	return o
}

// runOn builds a fresh program via build, transforms it per cfg, and
// executes it on the requested engine with input from inputFor.
// Telemetry is always on so parity covers the per-site recorder too.
func runOn(t *testing.T, eng bench.Engine, build func() *ir.Program,
	inputFor func(bench.Allocator) []interp.Val, cfg parityConfig,
) (interp.Val, []interp.Val, *interp.Stats, *telemetry.Telemetry, error) {
	t.Helper()
	return runLimited(t, eng, build, inputFor, cfg, func(*interp.Options) {})
}

// assertParity runs the program on both engines and requires the full
// measurement surface to be identical: return value, the emitted
// output in order, every (implementation, op-kind) count, sparse/dense
// classification, step count, and the sampled memory model.
func assertParity(t *testing.T, build func() *ir.Program,
	inputFor func(bench.Allocator) []interp.Val, cfg parityConfig,
) {
	t.Helper()
	iRet, iOut, iStats, iTele, iErr := runOn(t, bench.EngineInterp, build, inputFor, cfg)
	vRet, vOut, vStats, vTele, vErr := runOn(t, bench.EngineVM, build, inputFor, cfg)
	if (iErr == nil) != (vErr == nil) {
		t.Fatalf("%s: error divergence: interp=%v vm=%v", cfg.name, iErr, vErr)
	}
	if iErr != nil {
		if iErr.Error() != vErr.Error() {
			t.Fatalf("%s: error message divergence:\n  interp: %v\n  vm:     %v", cfg.name, iErr, vErr)
		}
		return
	}
	if iRet.I != vRet.I || iRet.K != vRet.K {
		t.Errorf("%s: ret divergence: interp=%v vm=%v", cfg.name, iRet, vRet)
	}
	if len(iOut) != len(vOut) {
		t.Fatalf("%s: output length divergence: interp=%d vm=%d", cfg.name, len(iOut), len(vOut))
	}
	for i := range iOut {
		if iOut[i].Bits() != vOut[i].Bits() {
			t.Fatalf("%s: output[%d] divergence: interp=%v vm=%v", cfg.name, i, iOut[i], vOut[i])
		}
	}
	if *iStats != *vStats {
		t.Errorf("%s: stats divergence:\n  interp: steps=%d sparse=%d dense=%d peak=%d cur=%d emit=%d/%d\n  vm:     steps=%d sparse=%d dense=%d peak=%d cur=%d emit=%d/%d",
			cfg.name,
			iStats.Steps, iStats.Sparse, iStats.Dense, iStats.PeakBytes, iStats.CurBytes, iStats.EmitCount, iStats.EmitSum,
			vStats.Steps, vStats.Sparse, vStats.Dense, vStats.PeakBytes, vStats.CurBytes, vStats.EmitCount, vStats.EmitSum)
		for impl := 0; impl < interp.NImpls; impl++ {
			for k := range iStats.Counts[impl] {
				if iStats.Counts[impl][k] != vStats.Counts[impl][k] {
					t.Errorf("%s: Counts[%d][%s]: interp=%d vm=%d",
						cfg.name, impl, interp.OpKind(k), iStats.Counts[impl][k], vStats.Counts[impl][k])
				}
			}
		}
	}
	if !reflect.DeepEqual(iTele, vTele) {
		ib, vb := new(strings.Builder), new(strings.Builder)
		iTele.WriteText(ib)
		vTele.WriteText(vb)
		t.Errorf("%s: telemetry divergence:\n--- interp ---\n%s--- vm ---\n%s", cfg.name, ib, vb)
	}
	assertProfileParity(t, cfg.name, ir.ProgramHash(build()), iTele, vTele)
}

// assertProfileParity pins the durable half of engine determinism: the
// two engines' telemetry serialized through adeprofile must be
// byte-identical — a profile collected on either engine guides a
// compile to the same decisions.
func assertProfileParity(t *testing.T, name, hash string, iTele, vTele *telemetry.Telemetry) {
	t.Helper()
	var ib, vb bytes.Buffer
	if err := adeprofile.FromTelemetry(hash, name, iTele).Write(&ib); err != nil {
		t.Fatalf("%s: interp profile: %v", name, err)
	}
	if err := adeprofile.FromTelemetry(hash, name, vTele).Write(&vb); err != nil {
		t.Fatalf("%s: vm profile: %v", name, err)
	}
	if !bytes.Equal(ib.Bytes(), vb.Bytes()) {
		t.Errorf("%s: adeprofile serialization divergence:\n--- interp ---\n%s--- vm ---\n%s",
			name, ib.String(), vb.String())
	}
}

// TestEngineParitySuite diffs the two engines over the whole benchmark
// suite crossed with baseline and ADE configurations.
func TestEngineParitySuite(t *testing.T) {
	for _, s := range bench.All() {
		s := s
		t.Run(s.Abbr, func(t *testing.T) {
			for _, cfg := range parityConfigs() {
				assertParity(t,
					func() *ir.Program { return s.Build("") },
					func(a bench.Allocator) []interp.Val { return s.Input(a, bench.ScaleTest) },
					cfg)
			}
		})
	}
}

// TestEngineParityMemSampleEveryGrow stresses the growth-sampled
// memory model: with MemSampleEvery=1 every growth event samples, so
// any divergence in the engines' growth-event sequences shows up as a
// PeakBytes mismatch.
func TestEngineParityMemSampleEveryGrow(t *testing.T) {
	for _, abbr := range []string{"BFS", "PTA", "FIM"} {
		s := bench.Get(abbr)
		if s == nil {
			t.Fatalf("missing benchmark %s", abbr)
		}
		for _, cfg := range []parityConfig{
			{name: "baseline-hash-mem1", memEach: 1},
			{name: "ade-mem1", ade: func() *core.Options { o := core.DefaultOptions(); return &o }(), memEach: 1},
		} {
			assertParity(t,
				func() *ir.Program { return s.Build("") },
				func(a bench.Allocator) []interp.Val { return s.Input(a, bench.ScaleTest) },
				cfg)
		}
	}
}

// TestEngineParityRandom diffs the engines over the random program
// family behind the core fuzz tests.
func TestEngineParityRandom(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			engineDiffSeed(t, seed)
		})
	}
}

func engineDiffSeed(t *testing.T, seed int64) {
	t.Helper()
	input := core.FuzzInput(seed)
	inputFor := func(a bench.Allocator) []interp.Val {
		c := a.NewColl(ir.SeqOf(ir.TU64)).(interp.RSeq)
		for _, x := range input {
			c.Append(interp.IntV(x))
		}
		return []interp.Val{interp.CollV(c.(interp.Coll))}
	}
	build := func() *ir.Program { return core.GenerateProgram(seed) }
	// Generous step/mem budgets so a pathological generated program
	// fails fast with the structured budget error (which must still be
	// engine-identical) instead of stalling the fuzz run.
	bud := parityConfig{maxSteps: 20_000_000, maxBytes: 1 << 30}
	bud.name = "random-baseline"
	assertParity(t, build, inputFor, bud)
	ade := core.DefaultOptions()
	bud.name, bud.ade = "random-ade", &ade
	assertParity(t, build, inputFor, bud)
}

// TestStepBudgetParity verifies that both engines hit the step budget
// with the same diagnostic.
func TestStepBudgetParity(t *testing.T) {
	s := bench.Get("BFS")
	build := func() *ir.Program { return s.Build("") }
	inputFor := func(a bench.Allocator) []interp.Val { return s.Input(a, bench.ScaleTest) }
	for _, budget := range []uint64{1, 10, 1000} {
		prog := build()
		iOpts := interp.DefaultOptions()
		iOpts.MaxSteps = budget
		ip := interp.New(prog, iOpts)
		_, iErr := ip.Run("main", inputFor(interpAlloc{ip})...)

		bc, err := bytecode.Compile(build())
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		m := vm.New(bc, iOpts)
		_, vErr := m.Run("main", inputFor(m)...)
		if (iErr == nil) != (vErr == nil) {
			t.Fatalf("budget %d: error divergence: interp=%v vm=%v", budget, iErr, vErr)
		}
		if iErr != nil && iErr.Error() != vErr.Error() {
			t.Fatalf("budget %d: message divergence: interp=%v vm=%v", budget, iErr, vErr)
		}
		if iErr != nil && ip.Stats.Steps != m.Stats.Steps {
			t.Fatalf("budget %d: steps at abort: interp=%d vm=%d", budget, ip.Stats.Steps, m.Stats.Steps)
		}
	}
}

type interpAlloc struct{ ip *interp.Interp }

func (a interpAlloc) NewColl(ct *ir.CollType) interp.Coll { return a.ip.NewColl(ct) }

// TestDisasmDeterministic compiles a benchmark twice and requires
// byte-identical disassembly.
func TestDisasmDeterministic(t *testing.T) {
	s := bench.Get("PTA")
	a, err := bytecode.Compile(s.Build(""))
	if err != nil {
		t.Fatal(err)
	}
	b, err := bytecode.Compile(s.Build(""))
	if err != nil {
		t.Fatal(err)
	}
	if bytecode.Disasm(a) != bytecode.Disasm(b) {
		t.Fatal("disassembly not deterministic across identical builds")
	}
}

// TestTelemetryZeroStatsDelta verifies that enabling telemetry leaves
// the measurement surface (Stats) bit-identical on both engines: the
// recorder observes but never counts.
func TestTelemetryZeroStatsDelta(t *testing.T) {
	for _, abbr := range []string{"BFS", "PTA", "FIM"} {
		s := bench.Get(abbr)
		if s == nil {
			t.Fatalf("missing benchmark %s", abbr)
		}
		build := func() *ir.Program {
			prog := s.Build("")
			o := core.DefaultOptions()
			if _, err := core.Apply(prog, o); err != nil {
				t.Fatalf("%s: ade: %v", abbr, err)
			}
			return prog
		}
		for _, eng := range []bench.Engine{bench.EngineInterp, bench.EngineVM} {
			run := func(rec *telemetry.Recorder) *interp.Stats {
				opts := interp.DefaultOptions()
				opts.Telemetry = rec
				m, err := bench.NewMachine(build(), opts, eng)
				if err != nil {
					t.Fatalf("%s/%v: new machine: %v", abbr, eng, err)
				}
				if _, err := m.Run("main", s.Input(m, bench.ScaleTest)...); err != nil {
					t.Fatalf("%s/%v: run: %v", abbr, eng, err)
				}
				m.FinalizeMem()
				return m.Stats()
			}
			off := run(nil)
			on := run(telemetry.NewRecorder())
			if *off != *on {
				t.Errorf("%s/%v: telemetry changed Stats:\n  off: %+v\n  on:  %+v", abbr, eng, off, on)
			}
		}
	}
}

// TestSeqRemoveRangeError pins the out-of-range diagnostic of a
// sequence remove on both engines. The IR verifier rejects remove on a
// Seq, so no checked-in .mir program can reach it; the builder can.
func TestSeqRemoveRangeError(t *testing.T) {
	build := func() *ir.Program {
		b := ir.NewFunc("main", ir.TU64)
		b.Fn.Exported = true
		s := b.New(ir.SeqOf(ir.TU64), "s")
		s1 := b.InsertSeq(ir.Op(s), nil, ir.ConstInt(ir.TU64, 9), "s1")
		b.Remove(ir.Op(s1), ir.ConstInt(ir.TU64, 4), "s2")
		b.Ret(ir.ConstInt(ir.TU64, 0))
		p := ir.NewProgram()
		p.Add(b.Fn)
		return p
	}
	noInput := func(bench.Allocator) []interp.Val { return nil }
	for _, eng := range bench.Engines() {
		_, _, _, _, err := runOn(t, eng, build, noInput, parityConfig{name: "baseline-hash"})
		if want := "@main: seq remove index 4 out of range"; err == nil || err.Error() != want {
			t.Errorf("%v: err = %v, want %q", eng, err, want)
		}
	}
}

// TestZeroOptionsNormalize requires the zero Options to run exactly
// like DefaultOptions on both engines: one normalization serves both.
func TestZeroOptionsNormalize(t *testing.T) {
	s := bench.Get("BFS")
	for _, eng := range bench.Engines() {
		var stats []*interp.Stats
		for _, opts := range []interp.Options{{}, interp.DefaultOptions()} {
			m, err := bench.NewMachine(s.Build(""), opts, eng)
			if err != nil {
				t.Fatalf("%v: new machine: %v", eng, err)
			}
			if _, err := m.Run("main", s.Input(m, bench.ScaleTest)...); err != nil {
				t.Fatalf("%v: run: %v", eng, err)
			}
			m.FinalizeMem()
			stats = append(stats, m.Stats())
		}
		// Stats carries the counts, PeakBytes and the emit checksum.
		if *stats[0] != *stats[1] {
			t.Errorf("%v: zero Options diverge from DefaultOptions:\n  zero:    %+v\n  default: %+v", eng, stats[0], stats[1])
		}
	}
}
