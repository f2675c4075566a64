package vm_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"memoir/internal/bench"
	"memoir/internal/faults"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/parser"
	"memoir/internal/telemetry"
)

// Engine parity at the representation boundaries: raw-word Seq, BitMap
// and Enum storage, and the VM's reusable frame stack. Each case runs
// one program on both engines and requires identical results, output
// and Stats (PeakBytes and CurBytes included, sampled at every growth
// event), plus the values the boxed representation would produce.

func parseSrc(t *testing.T, src string) func() *ir.Program {
	t.Helper()
	if _, err := parser.Parse(src); err != nil {
		t.Fatalf("parse: %v", err)
	}
	return func() *ir.Program {
		p, err := parser.Parse(src)
		if err != nil {
			panic(err)
		}
		return p
	}
}

func noInput(bench.Allocator) []interp.Val { return nil }

// runBoth runs src on both engines under every parity column and
// returns the interpreter's output after checking the VM agrees.
func runBoth(t *testing.T, src string, mod func(*interp.Options)) []uint64 {
	t.Helper()
	build := parseSrc(t, src)
	var want []uint64
	for _, cfg := range parityConfigs() {
		cfg.memEach = 1
		iRet, iOut, iStats, iTele, iErr := runLimited(t, bench.EngineInterp, build, noInput, cfg, mod)
		vRet, vOut, vStats, vTele, vErr := runLimited(t, bench.EngineVM, build, noInput, cfg, mod)
		if iErr != nil || vErr != nil {
			t.Fatalf("%s: interp err=%v, vm err=%v", cfg.name, iErr, vErr)
		}
		if iRet != vRet || !reflect.DeepEqual(iOut, vOut) {
			t.Fatalf("%s: interp ret=%v out=%v, vm ret=%v out=%v", cfg.name, iRet, iOut, vRet, vOut)
		}
		if *iStats != *vStats {
			t.Fatalf("%s: stats divergence:\n  interp: %+v\n  vm:     %+v", cfg.name, *iStats, *vStats)
		}
		if !reflect.DeepEqual(iTele, vTele) {
			t.Fatalf("%s: telemetry divergence", cfg.name)
		}
		var got []uint64
		for _, v := range iOut {
			got = append(got, v.I)
		}
		if want != nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: output %v, other columns %v", cfg.name, got, want)
		}
		want = got
	}
	return want
}

func noMod(*interp.Options) {}

// A for-each iterates a snapshot of the sequence's backing array. The
// body appends and writes the element the next iteration reads: a
// write before the append reallocates is visible to the loop, a write
// after it is not. The expected output comes from the same loop over a
// boxed []interp.Val grown by Go's append, so word storage must
// reallocate at exactly the lengths boxed storage does (for n = 9 the
// boxed array has room for 18 elements, a plain []uint64 for 16).
func TestReprSeqForEachAcrossRealloc(t *testing.T) {
	for _, n := range []uint64{3, 9, 20} {
		src := fmt.Sprintf(`
fn u64 @main(): exported
  %%s := new Seq<u64>()
  do:
    %%i := phi(1, %%i1)
    %%s0 := phi(%%s, %%s1)
    %%s1 := insert(%%s0, end, %%i)
    %%i1 := add(%%i, 1)
    %%more := le(%%i1, %d)
  while %%more
  %%sA := phi(%%s0)
  for [%%k, %%v] in %%sA:
    %%t0 := phi(%%sA, %%t2)
    %%t1 := insert(%%t0, end, %%v)
    %%j := add(%%k, 1)
    %%nv := add(%%v, 100)
    %%t2 := write(%%t1, %%j, %%nv)
    emit(%%v)
  %%sF := phi(%%t0)
  for [%%k2, %%w] in %%sF:
    emit(%%w)
  %%len := size(%%sF)
  ret %%len
`, n)
		var s []interp.Val
		for i := uint64(1); i <= n; i++ {
			s = append(s, interp.IntV(i))
		}
		var want []uint64
		snap := s
		for k, v := range snap {
			want = append(want, v.I)
			s = append(s, v)
			s[k+1] = interp.IntV(v.I + 100)
		}
		for _, w := range s {
			want = append(want, w.I)
		}
		if got := runBoth(t, src, noMod); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: output %v, want %v", n, got, want)
		}
	}
}

// A dense map of integers zeroes a removed entry's word, so a
// re-inserted key reads back the zero value, not its old value.
func TestReprBitMapRemoveReinsert(t *testing.T) {
	const src = `
fn u64 @main(): exported
  %m := new Map{BitMap}<idx,u64>()
  %k := cast<idx>(5)
  %k2 := cast<idx>(70)
  %m1 := insert(%m, %k)
  %m2 := write(%m1, %k, 42)
  %m3 := insert(%m2, %k2)
  %m4 := write(%m3, %k2, 7)
  %r1 := read(%m4, %k)
  emit(%r1)
  %m5 := remove(%m4, %k)
  %h := has(%m5, %k)
  %h64 := cast<u64>(%h)
  emit(%h64)
  %m6 := insert(%m5, %k)
  %r2 := read(%m6, %k)
  emit(%r2)
  for [%key, %val] in %m6:
    %kv := cast<u64>(%key)
    emit(%kv)
    emit(%val)
  ret %r2
`
	got := runBoth(t, src, noMod)
	want := []uint64{42, 0, 0, 5, 0, 70, 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("output %v, want %v", got, want)
	}
}

// The enum-corrupt fault overwrites decode slot 0 of a word-keyed
// enumeration with the latest value, identically on both engines.
func TestReprEnumCorruptWords(t *testing.T) {
	const src = `
fn u64 @main(): exported
  %e := new Enum<u64>()
  (%e1, %a) := call @add(%e, 11)
  (%e2, %b) := call @add(%e1, 22)
  (%e3, %c) := call @add(%e2, 33)
  %d0 := call @dec(%e3, %a)
  emit(%d0)
  %x := call @enc(%e3, 33)
  %x64 := cast<u64>(%x)
  emit(%x64)
  ret %d0
`
	pt, err := faults.ByName("enum-corrupt:3")
	if err != nil {
		t.Fatal(err)
	}
	got := runBoth(t, src, func(o *interp.Options) { o.Faults = faults.NewInjector(pt) })
	if want := []uint64{33, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("output %v, want %v", got, want)
	}
}

// depthSrc recurses n levels, each frame holding a few registers, so
// n = 3000 spans several frame-stack chunks; the bottom allocates.
const depthSrc = `
fn u64 @depth(%n: u64):
  %more := gt(%n, 0)
  if %more:
    %m := sub(%n, 1)
    %r1 := call @depth(%m)
    %r2 := add(%r1, 1)
  else:
    %s := new Seq<u64>()
    %s1 := insert(%s, end, %n)
    %r3 := size(%s1)
  %r := phi(%r2, %r3)
  ret %r

fn u64 @main(): exported
  %v := call @depth(3000)
  emit(%v)
  ret %v
`

func TestReprDeepRecursion(t *testing.T) {
	if got := runBoth(t, depthSrc, noMod); !reflect.DeepEqual(got, []uint64{3001}) {
		t.Fatalf("output %v, want [3001]", got)
	}
}

// A panic deep in a call chain is recovered at Run; a fresh Run on the
// same machine then starts from a clean frame stack and completes.
func TestReprPanicThenFreshRun(t *testing.T) {
	build := parseSrc(t, depthSrc)
	pt, err := faults.ByName("alloc-fail:1")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		err1       string
		ret2       interp.Val
		out        []interp.Val
		stats      interp.Stats
		tele       *telemetry.Telemetry
		secondRunE error
	}
	run := func(eng bench.Engine) outcome {
		opts := interp.DefaultOptions()
		opts.RecordOutput = true
		opts.Faults = faults.NewInjector(pt)
		opts.Telemetry = telemetry.NewRecorder()
		m, err := bench.NewMachine(build(), opts, eng)
		if err != nil {
			t.Fatal(err)
		}
		var o outcome
		if _, err := m.Run("main"); !errors.Is(err, interp.ErrRuntimePanic) {
			t.Fatalf("%v: first run: got %v, want ErrRuntimePanic", eng, err)
		} else {
			o.err1 = err.Error()
		}
		o.ret2, o.secondRunE = m.Run("main")
		m.FinalizeMem()
		o.out, o.stats, o.tele = m.RecordedOutput(), *m.Stats(), opts.Telemetry.Result()
		return o
	}
	i, v := run(bench.EngineInterp), run(bench.EngineVM)
	if i.secondRunE != nil || v.secondRunE != nil {
		t.Fatalf("second run: interp err=%v, vm err=%v", i.secondRunE, v.secondRunE)
	}
	if i.ret2.I != 3001 {
		t.Fatalf("second run returned %v, want 3001", i.ret2)
	}
	if !reflect.DeepEqual(i, v) {
		t.Fatalf("divergence:\n  interp: %+v\n  vm:     %+v", i, v)
	}
}
