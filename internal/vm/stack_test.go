package vm

import (
	"errors"
	"testing"

	"memoir/internal/bytecode"
	"memoir/internal/interp"
	"memoir/internal/parser"
)

// fibSrc is call-heavy: fib(n) makes about 2·fib(n) calls.
const fibSrc = `
fn u64 @fib(%n: u64):
  %small := lt(%n, 2)
  if %small:
    %r0 := add(%n, 0)
  else:
    %a := sub(%n, 1)
    %b := sub(%n, 2)
    %fa := call @fib(%a)
    %fb := call @fib(%b)
    %r1 := add(%fa, %fb)
  %r := phi(%r0, %r1)
  ret %r

fn u64 @main(%n: u64): exported
  %v := call @fib(%n)
  ret %v
`

func newFibVM(t testing.TB) *VM {
	t.Helper()
	p, err := parser.Parse(fibSrc)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := bytecode.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return New(bc, interp.DefaultOptions())
}

// Frames come from the VM's reusable register stack, so once the
// stack has grown to the call depth a Run allocates a constant amount
// however many calls it makes.
func TestRunAllocsIndependentOfCalls(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	m := newFibVM(t)
	allocs := func(n uint64) float64 {
		return testing.AllocsPerRun(5, func() {
			if v, err := m.Run("main", interp.IntV(n)); err != nil || v.I == 0 {
				t.Fatalf("fib(%d) = %v, %v", n, v, err)
			}
		})
	}
	few, many := allocs(5), allocs(20) // ~15 calls vs ~22k calls
	if many > few || many > 4 {
		t.Fatalf("Run allocations grow with calls: fib(5) %.0f, fib(20) %.0f", few, many)
	}
}

// BenchmarkRunCalls measures call overhead: fib(20) is ~22k calls.
func BenchmarkRunCalls(b *testing.B) {
	m := newFibVM(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run("main", interp.IntV(20)); err != nil {
			b.Fatal(err)
		}
	}
}

// After a Run, normal or recovered from a panic, the register and
// cursor stacks are empty again and every frame register is cleared.
func TestStackUnwindsAfterPanic(t *testing.T) {
	m := newFibVM(t)
	if _, err := m.Run("main", interp.IntV(18)); err != nil {
		t.Fatal(err)
	}
	assertEmptyStack(t, m, "after run")
	// Point fib's second call outside the function table: the first
	// call recurses to the bottom, and the way back up indexes out of
	// range with the stack deep — an engine panic recovered at Run.
	fib := m.Prog.Funcs[m.Prog.ByName["fib"]]
	saved := fib.Code
	fib.Code = append([]bytecode.Instr(nil), saved...)
	calls := 0
	for i := range fib.Code {
		if fib.Code[i].Op == bytecode.OpCall {
			if calls++; calls == 2 {
				fib.Code[i].Aux = int32(len(m.Prog.Funcs))
			}
		}
	}
	if calls != 2 {
		t.Fatalf("fib has %d calls, want 2", calls)
	}
	// fib(60) descends 60 frames before the first second call.
	if _, err := m.Run("main", interp.IntV(60)); !errors.Is(err, interp.ErrRuntimePanic) {
		t.Fatalf("corrupted call: got %v, want ErrRuntimePanic", err)
	}
	if len(m.chunks) < 2 {
		t.Fatalf("recursion used %d stack chunk(s); the test needs it to span several", len(m.chunks))
	}
	assertEmptyStack(t, m, "after panic")
	fib.Code = saved
	if v, err := m.Run("main", interp.IntV(18)); err != nil || v.I != 2584 {
		t.Fatalf("fresh run after panic: %v, %v", v, err)
	}
}

func assertEmptyStack(t *testing.T, m *VM, when string) {
	t.Helper()
	if m.ci != 0 || m.sp != 0 || len(m.iters) != 0 {
		t.Fatalf("%s: chunk %d, sp %d, %d cursors", when, m.ci, m.sp, len(m.iters))
	}
	for ci, c := range m.chunks {
		for i, v := range c {
			if v != (interp.Val{}) {
				t.Fatalf("%s: chunk %d register %d not cleared: %v", when, ci, i, v)
			}
		}
	}
}
