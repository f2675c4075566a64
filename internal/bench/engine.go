package bench

import (
	"fmt"
	"time"

	"memoir/internal/bytecode"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/vm"
)

// Engine selects the execution engine: the tree-walking interpreter
// (the measurement reference) or the bytecode register VM (the fast
// engine). Both produce identical deterministic op counts, memory
// peaks and output checksums; the VM only changes wall-clock time.
type Engine int

const (
	EngineInterp Engine = iota
	EngineVM
)

func (e Engine) String() string {
	switch e {
	case EngineInterp:
		return "interp"
	case EngineVM:
		return "vm"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// ParseEngine resolves an engine name as used by -engine flags.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "interp", "":
		return EngineInterp, nil
	case "vm":
		return EngineVM, nil
	}
	return 0, fmt.Errorf("unknown engine %q (want interp or vm)", s)
}

// Engines lists all engines, for matrix-style iteration.
func Engines() []Engine { return []Engine{EngineInterp, EngineVM} }

// Allocator is the part of an engine that benchmark input builders
// need: materializing input collections registered with the engine's
// memory model.
type Allocator interface {
	NewColl(*ir.CollType) interp.Coll
}

// Machine is a ready-to-run execution engine instance for one program.
// Both engines expose the interpreter's full measurement surface.
type Machine interface {
	Allocator
	Run(name string, args ...interp.Val) (interp.Val, error)
	FinalizeMem()
	Stats() *interp.Stats
	ROIStats() *interp.Stats
	// ROITime returns the wall-clock time of the roi marker and whether
	// the marker executed.
	ROITime() (time.Time, bool)
	// RecordedOutput returns the emitted values when
	// Options.RecordOutput was set.
	RecordedOutput() []interp.Val
}

// NewMachine instantiates the chosen engine for prog. For the VM this
// compiles the program to bytecode first.
func NewMachine(prog *ir.Program, opts interp.Options, eng Engine) (Machine, error) {
	switch eng {
	case EngineInterp:
		return NewInterpMachine(prog, opts), nil
	case EngineVM:
		bc, err := bytecode.Compile(prog)
		if err != nil {
			return nil, err
		}
		// Every artifact the VM runs has passed the verifier: a compile
		// bug surfaces here as a positioned error, not as a crash (or a
		// silently wrong answer) mid-benchmark.
		if err := bytecode.Verify(bc); err != nil {
			return nil, err
		}
		return NewVMMachine(bc, opts), nil
	}
	return nil, fmt.Errorf("unknown engine %v", eng)
}

// NewInterpMachine returns the interpreter for prog as a Machine. The
// interpreter finalizes slots lazily (a write to the IR), so
// concurrent machines need private copies of prog.
func NewInterpMachine(prog *ir.Program, opts interp.Options) Machine {
	ip := interp.New(prog, opts)
	return machine{ip, &ip.Runtime}
}

// NewVMMachine returns a VM for bc, which must have passed
// bytecode.Verify, as a Machine. The bytecode is immutable: concurrent
// machines may share it.
func NewVMMachine(bc *bytecode.Prog, opts interp.Options) Machine {
	m := vm.New(bc, opts)
	return machine{m, &m.Runtime}
}

// machine adapts either engine to Machine: Run comes from the engine,
// the measurement surface from the run state it embeds.
type machine struct {
	runner
	*interp.Runtime
}

type runner interface {
	Run(name string, args ...interp.Val) (interp.Val, error)
}

func (m machine) Stats() *interp.Stats { return m.Runtime.Stats }

func (m machine) ROITime() (time.Time, bool) { return m.ROIStart, m.ROISnapshot != nil }

func (m machine) RecordedOutput() []interp.Val { return m.Output }
