// Package memoir is a Go reproduction of "Automatic Data Enumeration
// for Fast Collections" (CGO 2026): a MEMOIR-style compiler IR with
// first-class SSA data collections, the Automatic Data Enumeration
// (ADE) transformation, the full collection-implementation selection
// space of the paper's Table I, and an instrumented interpreter that
// stands in for native code generation.
//
// This package is the public façade. Typical use:
//
//	prog, err := memoir.Compile(src)        // parse + ADE
//	res, err := prog.Run("main")
//	fmt.Println(res.Value, res.Checksum)
//
// The building blocks live under internal/: the IR and builder
// (internal/ir), the textual parser (internal/parser), the ADE pass
// (internal/core), the collection implementations
// (internal/collections), the interpreter (internal/interp), the
// benchmark suite (internal/bench) and the evaluation harness
// (internal/experiments). The cmd/ directory holds the adec compiler
// driver, the memoir-run executor and the adebench experiment runner.
package memoir

import (
	"fmt"
	"time"

	"memoir/internal/adeprofile"
	"memoir/internal/bench"
	"memoir/internal/collections"
	"memoir/internal/core"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/parser"
	"memoir/internal/telemetry"
)

// Program is a parsed (and possibly ADE-transformed) MEMOIR program.
type Program struct {
	IR *ir.Program
	// Report describes the enumeration decisions when ADE ran.
	Report string

	set, mapI collections.Impl
	engine    Engine
}

// Option configures Compile.
type Option func(*config)

type config struct {
	ade    bool
	opts   core.Options
	set    collections.Impl
	mapI   collections.Impl
	engine Engine
}

// Engine selects the execution engine Run uses.
type Engine int

const (
	// EngineInterp is the instrumented tree-walking interpreter, the
	// measurement reference.
	EngineInterp Engine = iota
	// EngineVM lowers the program to register bytecode and runs it on
	// the fast VM. All deterministic measurements (checksums, access
	// counts, memory peaks) are identical to the interpreter's; only
	// wall-clock time changes.
	EngineVM
)

// WithEngine selects the execution engine for Run. The default is the
// interpreter.
func WithEngine(e Engine) Option { return func(c *config) { c.engine = e } }

// WithoutADE parses and verifies only (the MEMOIR baseline).
func WithoutADE() Option { return func(c *config) { c.ade = false } }

// WithoutRTE disables redundant translation elimination (§III-C).
func WithoutRTE() Option { return func(c *config) { c.opts.RTE = false } }

// WithoutPropagation disables identifier propagation (§III-E).
func WithoutPropagation() Option { return func(c *config) { c.opts.Propagation = false } }

// WithoutSharing disables enumeration sharing (§III-D), which also
// disables propagation.
func WithoutSharing() Option {
	return func(c *config) { c.opts.Sharing = false; c.opts.Propagation = false }
}

// WithSparseSets selects SparseBitSet for enumerated sets (the
// ade-sparse configuration).
func WithSparseSets() Option {
	return func(c *config) { c.opts.SetImpl = collections.ImplSparseBitSet }
}

// WithSwissDefaults makes Swiss{Set,Map} the default implementation
// for unselected collections (the RQ5 comparison).
func WithSwissDefaults() Option {
	return func(c *config) {
		c.set = collections.ImplSwissSet
		c.mapI = collections.ImplSwissMap
	}
}

// Profile carries dynamic per-site operation counts from a profiling
// run back into the benefit heuristic (the extension §III-C sketches).
// It is the durable adeprofile/v1 document adec -profile reads.
type Profile = adeprofile.Profile

// WithProfile weights the benefit heuristic and implementation
// selection by the given profile, so cold code contributes no benefit
// and cold collections are not enumerated. A profile collected from a
// different program is reported as stale in Report and ignored.
func WithProfile(p *Profile) Option {
	return func(c *config) { c.opts.SiteProfile = p }
}

// CollectProfile executes entry and returns the run's profile, keyed
// by the program's hash. Collect it on an untransformed program (from
// Parse, or Compile with WithoutADE): it then applies to any Compile
// of the same source.
func (p *Program) CollectProfile(entry string, args ...uint64) (*Profile, error) {
	rec := telemetry.NewRecorder()
	opts := interp.DefaultOptions()
	opts.Telemetry = rec
	ip := interp.New(p.IR, opts)
	vals := make([]interp.Val, len(args))
	for i, a := range args {
		vals[i] = interp.IntV(a)
	}
	if _, err := ip.Run(entry, vals...); err != nil {
		return nil, err
	}
	return adeprofile.FromTelemetry(ir.ProgramHash(p.IR), "", rec.Result()), nil
}

// Parse reads a textual MEMOIR program without transforming it.
func Parse(src string) (*Program, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := ir.Verify(p); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	return &Program{IR: p}, nil
}

// Compile parses src and applies Automatic Data Enumeration.
func Compile(src string, options ...Option) (*Program, error) {
	cfg := &config{ade: true, opts: core.DefaultOptions()}
	for _, o := range options {
		o(cfg)
	}
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	prog.set, prog.mapI, prog.engine = cfg.set, cfg.mapI, cfg.engine
	if !cfg.ade {
		return prog, nil
	}
	rep, err := core.Apply(prog.IR, cfg.opts)
	if err != nil {
		return nil, err
	}
	if err := ir.Verify(prog.IR); err != nil {
		return nil, fmt.Errorf("verify after ADE: %w", err)
	}
	prog.Report = rep.String()
	return prog, nil
}

// Text renders the program in the paper's syntax.
func (p *Program) Text() string { return ir.Print(p.IR) }

// Result is one execution's outcome.
type Result struct {
	// Value is the entry function's u64 return value.
	Value uint64
	// Checksum and Outputs summarize the emitted output stream
	// (order-insensitive).
	Checksum uint64
	Outputs  uint64
	// Wall is the execution time; Sparse/Dense are the dynamic access
	// counts of Table II; Peak is the modeled peak resident size.
	Wall   time.Duration
	Sparse uint64
	Dense  uint64
	Peak   int64
}

// Run executes entry on the configured engine with optional u64
// arguments.
func (p *Program) Run(entry string, args ...uint64) (*Result, error) {
	opts := interp.DefaultOptions()
	if p.set != collections.ImplNone {
		opts.DefaultSet = p.set
	}
	if p.mapI != collections.ImplNone {
		opts.DefaultMap = p.mapI
	}
	vals := make([]interp.Val, len(args))
	for i, a := range args {
		vals[i] = interp.IntV(a)
	}
	eng := bench.EngineInterp
	if p.engine == EngineVM {
		eng = bench.EngineVM
	}
	// NewMachine verifies the bytecode it compiles for the VM.
	m, err := bench.NewMachine(p.IR, opts, eng)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ret, err := m.Run(entry, vals...)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	m.FinalizeMem()
	stats := m.Stats()
	return &Result{
		Value:    ret.I,
		Checksum: stats.EmitSum,
		Outputs:  stats.EmitCount,
		Wall:     wall,
		Sparse:   stats.Sparse,
		Dense:    stats.Dense,
		Peak:     stats.PeakBytes,
	}, nil
}
