package interp

import (
	"context"
	"fmt"

	"memoir/internal/collections"
	"memoir/internal/faults"
	"memoir/internal/ir"
	"memoir/internal/telemetry"
)

// Options configures an execution.
type Options struct {
	// DefaultSet and DefaultMap choose the implementation for
	// unselected collection types. The paper's baseline is
	// Hash{Set,Map}; RQ5 switches the default to Swiss{Set,Map}.
	DefaultSet collections.Impl
	DefaultMap collections.Impl

	// MaxSteps aborts runaway programs (0 = no limit). Exhaustion
	// returns a *LimitError wrapping ErrStepBudget.
	MaxSteps uint64

	// MaxBytes aborts the run once the sampled live footprint exceeds
	// this many bytes (0 = no limit). Detection happens at the next
	// footprint sample after the budget is crossed (see
	// MemSampleEvery), and the abort surfaces at the next step
	// checkpoint — the same dynamic point on both engines, so partial
	// Stats and telemetry stay engine-identical. Returns a *LimitError
	// wrapping ErrMemBudget.
	MaxBytes int64

	// Context, when non-nil, is polled at deterministic step
	// checkpoints; cancellation or deadline expiry aborts the run with
	// a *LimitError wrapping ErrDeadline. The polling points are
	// engine-identical, but which poll observes an expired wall-clock
	// deadline is inherently timing-dependent.
	Context context.Context

	// Faults, when non-nil, drives deterministic runtime fault
	// injection (fail the Nth collection allocation, corrupt the Nth
	// enumeration add). Each injector is single-run state: never share
	// one across executions.
	Faults *faults.Injector

	// MemSampleEvery recomputes the live footprint every N growth
	// operations; lower is more precise, higher is faster.
	MemSampleEvery int

	// RecordOutput retains emitted values in order (for debugging) in
	// addition to the order-insensitive checksum.
	RecordOutput bool

	// TrackReads records every non-constant SSA value the interpreter
	// reads. The dataflow property tests use it as runtime ground
	// truth: a value liveness declares dead must never appear here.
	TrackReads bool

	// Telemetry, when non-nil, records per-collection-site operation
	// histograms, occupancy samples, and enumeration translation
	// counts. It never touches Stats, so enabling it cannot perturb
	// the op-count measurements.
	Telemetry *telemetry.Recorder
}

// DefaultOptions returns the baseline MEMOIR configuration: the
// normalized form of the zero Options.
func DefaultOptions() Options { return normalize(Options{}) }

// Interp executes a MEMOIR program by walking its IR tree.
type Interp struct {
	Runtime
	Prog *ir.Program

	// Enumeration globals created by ADE's interprocedural stage: one
	// per enumeration equivalence class (§III-F).
	globals map[string]*Enum

	// localSlot holds the reusable registry slot of each
	// iteration-local allocation (-1 until its first instance).
	localSlot map[*ir.Instr]*int32

	// allocOrds caches per-function allocation ordinals for telemetry
	// site keys; nil when telemetry is off.
	allocOrds map[*ir.Func]map[*ir.Instr]int

	// reads is non-nil when TrackReads is set.
	reads map[*ir.Value]bool

	slotCache map[*ir.Func]int
}

// New returns an interpreter for prog.
func New(prog *ir.Program, opts Options) *Interp {
	ip := &Interp{
		Runtime:   NewRuntime(opts),
		Prog:      prog,
		globals:   map[string]*Enum{},
		localSlot: map[*ir.Instr]*int32{},
		slotCache: map[*ir.Func]int{},
	}
	if opts.TrackReads {
		ip.reads = map[*ir.Value]bool{}
	}
	if opts.Telemetry != nil {
		ip.allocOrds = map[*ir.Func]map[*ir.Instr]int{}
	}
	return ip
}

// global returns the enumeration global named name, creating it on
// first use (with word keys when words is set).
func (ip *Interp) global(name string, words bool) *Enum {
	e, ok := ip.globals[name]
	if !ok {
		e = ip.NewEnum(name, words)
		ip.globals[name] = e
	}
	return e
}

// Run executes the named function with the given arguments and returns
// its result. A Go panic during execution (an engine bug or an
// injected fault) is recovered here and returned as a *LimitError
// wrapping ErrRuntimePanic, with the Stats accumulated so far intact.
func (ip *Interp) Run(name string, args ...Val) (ret Val, err error) {
	fn := ip.Prog.Func(name)
	if fn == nil {
		return Val{}, fmt.Errorf("interp: no function @%s", name)
	}
	defer func() {
		if r := recover(); r != nil {
			ret, err = Val{}, RecoveredError(r, fn.Name, ip.Stats.Steps)
		}
	}()
	return ip.call(fn, args)
}

func (ip *Interp) frameSize(fn *ir.Func) int {
	n, ok := ip.slotCache[fn]
	if !ok {
		n = ir.FinalizeSlots(fn)
		ip.slotCache[fn] = n
		ip.classifyIterLocal(fn)
	}
	return n
}

// classifyIterLocal gives a registry slot to each allocation whose
// instances die at the end of each iteration of their innermost
// enclosing loop; the analysis itself lives in ir.IterLocalAllocs so
// the bytecode compiler bakes the very same classification into its
// instructions.
func (ip *Interp) classifyIterLocal(fn *ir.Func) {
	for in := range ir.IterLocalAllocs(fn) {
		slot := int32(-1)
		ip.localSlot[in] = &slot
	}
}

// siteKey returns the telemetry identity of allocation in (the zero
// key when telemetry is off).
func (ip *Interp) siteKey(fn *ir.Func, in *ir.Instr) telemetry.SiteKey {
	if ip.allocOrds == nil {
		return telemetry.SiteKey{}
	}
	ords, ok := ip.allocOrds[fn]
	if !ok {
		ords = ir.AllocOrdinals(fn)
		ip.allocOrds[fn] = ords
	}
	return telemetry.SiteKey{Fn: fn.Name, Alloc: ords[in]}
}

func (ip *Interp) call(fn *ir.Func, args []Val) (Val, error) {
	if len(args) != len(fn.Params) {
		return Val{}, Errf(fn.Name, "called with %d args, want %d", len(args), len(fn.Params))
	}
	fr := make([]Val, ip.frameSize(fn))
	for i, p := range fn.Params {
		fr[p.Slot] = args[i]
	}
	_, ret, err := ip.execBlock(fn, fr, fn.Body)
	if err != nil {
		return Val{}, err
	}
	return ret, nil
}

func constVal(v *ir.Value) Val {
	if st, ok := v.Type.(*ir.ScalarType); ok {
		switch st.Kind {
		case ir.F32, ir.F64:
			return FloatV(v.ConstFlt)
		case ir.Str:
			return StrV(v.ConstStr)
		}
	}
	return IntV(v.ConstInt)
}

func (ip *Interp) eval(fr []Val, v *ir.Value) Val {
	if v.Kind == ir.VConst {
		return constVal(v)
	}
	if ip.reads != nil {
		ip.reads[v] = true
	}
	return fr[v.Slot]
}

// ReadValues returns the values read so far when Options.TrackReads
// was set, nil otherwise.
func (ip *Interp) ReadValues() map[*ir.Value]bool { return ip.reads }

// resolve walks an operand's nesting path, returning the addressed
// value. Intermediate map lookups are real dynamic accesses and are
// accounted as reads on the outer container.
func (ip *Interp) resolve(fn *ir.Func, fr []Val, o ir.Operand) (Val, error) {
	cur := ip.eval(fr, o.Base)
	for _, ix := range o.Path {
		switch ix.Kind {
		case ir.IdxField:
			if cur.K != VTuple || int(ix.Num) >= len(cur.Tuple()) {
				return Val{}, Errf(fn.Name, "tuple access .%d on %v", ix.Num, cur)
			}
			cur = cur.Tuple()[ix.Num]
		default:
			if cur.K != VColl {
				return Val{}, Errf(fn.Name, "indexing non-collection %v", cur)
			}
			var key Val
			switch ix.Kind {
			case ir.IdxValue:
				key = ip.eval(fr, ix.Val)
			case ir.IdxConst:
				key = IntV(ix.Num)
			case ir.IdxEnd:
				return Val{}, Errf(fn.Name, "end index cannot be resolved as a value")
			}
			switch c := cur.Coll().(type) {
			case RMap:
				ip.Stats.Count(c.Impl(), OKRead, 1)
				ip.TColl(c, OKRead, 1)
				v, ok := c.Get(key)
				if !ok {
					return Val{}, Errf(fn.Name, "nested read of missing key %v", key)
				}
				cur = v
			case RSeq:
				i := int(key.I)
				if i < 0 || i >= c.Len() {
					return Val{}, Errf(fn.Name, "nested seq index %d out of range [0,%d)", i, c.Len())
				}
				ip.Stats.Count(c.Impl(), OKRead, 1)
				ip.TColl(c, OKRead, 1)
				cur = c.Get(i)
			default:
				return Val{}, Errf(fn.Name, "indexing into a set")
			}
		}
	}
	return cur, nil
}

type ctrl uint8

const (
	ctrlNormal ctrl = iota
	ctrlReturn
)

func (ip *Interp) execBlock(fn *ir.Func, fr []Val, b *ir.Block) (ctrl, Val, error) {
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ir.Instr:
			c, ret, err := ip.execInstr(fn, fr, n)
			if err != nil || c == ctrlReturn {
				return c, ret, err
			}
		case *ir.If:
			cond := ip.eval(fr, n.Cond)
			var body *ir.Block
			branch := 1
			if cond.Bool() {
				body = n.Then
				branch = 0
			} else {
				body = n.Else
			}
			c, ret, err := ip.execBlock(fn, fr, body)
			if err != nil || c == ctrlReturn {
				return c, ret, err
			}
			for _, p := range n.ExitPhis {
				fr[p.Result().Slot] = ip.eval(fr, p.Args[branch].Base)
			}
		case *ir.ForEach:
			if err := ip.execForEach(fn, fr, n); err != nil {
				return ctrlNormal, Val{}, err
			}
		case *ir.DoWhile:
			if err := ip.execDoWhile(fn, fr, n); err != nil {
				return ctrlNormal, Val{}, err
			}
		}
	}
	return ctrlNormal, Val{}, nil
}

func (ip *Interp) initHeaderPhis(fr []Val, phis []*ir.Instr) {
	for _, p := range phis {
		fr[p.Result().Slot] = ip.eval(fr, p.Args[0].Base)
	}
}

func (ip *Interp) latchHeaderPhis(fr []Val, phis []*ir.Instr) {
	// Evaluate all latches before writing any, matching parallel phi
	// semantics.
	tmp := make([]Val, len(phis))
	for i, p := range phis {
		tmp[i] = ip.eval(fr, p.Args[1].Base)
	}
	for i, p := range phis {
		fr[p.Result().Slot] = tmp[i]
	}
}

func (ip *Interp) exitPhis(fr []Val, phis []*ir.Instr) {
	for _, p := range phis {
		fr[p.Result().Slot] = ip.eval(fr, p.Args[0].Base)
	}
}

func (ip *Interp) execForEach(fn *ir.Func, fr []Val, n *ir.ForEach) error {
	collV, err := ip.resolve(fn, fr, n.Coll)
	if err != nil {
		return err
	}
	if collV.K != VColl {
		return Errf(fn.Name, "for-each over non-collection %v", collV)
	}
	ip.initHeaderPhis(fr, n.HeaderPhis)
	kSlot, vSlot := n.Key.Slot, n.Val.Slot

	var iterErr error
	ip.Stats.Steps++
	tcount := ip.IterStart(collV.Coll())
	step := func(k, v Val) bool {
		ip.Stats.Count(collV.Coll().Impl(), OKIter, 1)
		if tcount != nil {
			*tcount++
		}
		fr[kSlot], fr[vSlot] = k, v
		c, _, err := ip.execBlock(fn, fr, n.Body)
		if err != nil {
			iterErr = err
			return false
		}
		if c == ctrlReturn {
			iterErr = Errf(fn.Name, "return inside for-each is unsupported")
			return false
		}
		ip.latchHeaderPhis(fr, n.HeaderPhis)
		return true
	}
	switch c := collV.Coll().(type) {
	case RSeq:
		c.Iterate(func(i int, v Val) bool { return step(IntV(uint64(i)), v) })
	case RSet:
		c.Iterate(func(v Val) bool { return step(v, v) })
	case RMap:
		c.Iterate(func(k, v Val) bool { return step(k, v) })
	}
	if iterErr != nil {
		return iterErr
	}
	ip.exitPhis(fr, n.ExitPhis)
	return nil
}

func (ip *Interp) execDoWhile(fn *ir.Func, fr []Val, n *ir.DoWhile) error {
	ip.initHeaderPhis(fr, n.HeaderPhis)
	for {
		ip.Stats.Steps++
		if ip.Limited {
			if err := ip.Interrupted(fn.Name, ip.Stats.Steps); err != nil {
				return err
			}
		}
		c, _, err := ip.execBlock(fn, fr, n.Body)
		if err != nil {
			return err
		}
		if c == ctrlReturn {
			return Errf(fn.Name, "return inside do-while is unsupported")
		}
		cond := ip.eval(fr, n.Cond)
		if !cond.Bool() {
			break
		}
		ip.latchHeaderPhis(fr, n.HeaderPhis)
	}
	// At exit the header phis take their latch values one final time
	// so exit phis referencing them see the final state.
	ip.latchHeaderPhis(fr, n.HeaderPhis)
	ip.exitPhis(fr, n.ExitPhis)
	return nil
}
