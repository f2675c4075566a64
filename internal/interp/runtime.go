package interp

import (
	"fmt"
	"time"

	"memoir/internal/collections"
	"memoir/internal/faults"
	"memoir/internal/ir"
	"memoir/internal/telemetry"
)

// Runtime is the engine-independent state of one execution: the
// measurements, the memory model, the interruption sources and the
// telemetry hooks. Both execution engines (Interp here, and the
// register VM) embed it by value, so everything a count, a footprint
// sample or a diagnostic depends on is written once and shared; the
// engines differ only in how they walk the program.
type Runtime struct {
	Stats *Stats

	// Opts holds the options, normalized by NewRuntime. Read-only.
	Opts Options

	// Limited is true when any interruption source (step budget,
	// memory budget, context) is configured; the dispatch fast paths
	// check this single bool before the full interruption test.
	Limited bool

	// Stop holds a pending memory-budget violation detected during a
	// footprint sample; it surfaces at the next step checkpoint so both
	// engines abort at the same dynamic point.
	Stop *LimitError

	// live is the registry of collections and enumerations whose
	// modeled bytes make up the footprint; untilSample counts growth
	// events down to the next footprint sample.
	live        []interface{ Bytes() int64 }
	untilSample int

	// tele is non-nil when Options.Telemetry is set.
	tele *telemetry.Recorder

	// Output holds emitted values when RecordOutput is set.
	Output []Val

	// ROI marker state: a stats snapshot and timestamp taken at the
	// roi instruction, so the harness can split initialization from
	// the region of interest.
	ROISnapshot *Stats
	ROIStart    time.Time
}

// normalize fills the zero fields of opts with the baseline MEMOIR
// configuration.
func normalize(opts Options) Options {
	if opts.MemSampleEvery <= 0 {
		opts.MemSampleEvery = 512
	}
	if opts.DefaultSet == collections.ImplNone {
		opts.DefaultSet = collections.ImplHashSet
	}
	if opts.DefaultMap == collections.ImplNone {
		opts.DefaultMap = collections.ImplHashMap
	}
	return opts
}

// NewRuntime returns the run state for an execution under opts.
func NewRuntime(opts Options) Runtime {
	opts = normalize(opts)
	return Runtime{
		Stats:       &Stats{},
		Opts:        opts,
		Limited:     opts.MaxSteps > 0 || opts.MaxBytes > 0 || opts.Context != nil,
		untilSample: opts.MemSampleEvery,
		tele:        opts.Telemetry,
	}
}

// MarkROI snapshots the stats and wall clock; executed by the roi op.
func (rt *Runtime) MarkROI() {
	snap := *rt.Stats
	rt.ROISnapshot = &snap
	rt.ROIStart = time.Now()
}

// ROIStats returns the kernel-only stats: the flow quantities minus
// the snapshot at the roi marker. The peak-memory model stays global,
// because memory allocated before the marker is still resident in the
// region of interest. When no marker ran it returns the full stats.
func (rt *Runtime) ROIStats() *Stats {
	total, snap := rt.Stats, rt.ROISnapshot
	if snap == nil {
		return total
	}
	out := &Stats{}
	for i := range out.Counts {
		for k := range out.Counts[i] {
			out.Counts[i][k] = total.Counts[i][k] - snap.Counts[i][k]
		}
	}
	out.Sparse = total.Sparse - snap.Sparse
	out.Dense = total.Dense - snap.Dense
	out.Steps = total.Steps - snap.Steps
	out.PeakBytes = total.PeakBytes
	out.EmitCount = total.EmitCount - snap.EmitCount
	out.EmitSum = total.EmitSum - snap.EmitSum
	return out
}

// NewColl materializes an empty collection of type ct, honoring its
// selection annotation (unselected types fall back to the configured
// defaults) and registering it for memory accounting. An injected
// allocation failure panics with the fault.
func (rt *Runtime) NewColl(ct *ir.CollType) Coll {
	if fa := rt.Opts.Faults; fa != nil && fa.FailAlloc() {
		panic(&faults.InjectedFault{P: fa.Point()})
	}
	c := newCollFor(ct, rt.Opts.DefaultSet, rt.Opts.DefaultMap)
	rt.register(c)
	return c
}

// Alloc executes one `new` allocation site. localSlot is nil for a
// persistent site. For an iteration-local site (a fresh collection per
// loop iteration, never carried across iterations) it points at the
// site's reusable registry slot, -1 before the first instance: each
// new instance replaces the last, modeling the allocator reclaiming the
// dead one, so peak memory is not the sum of every instance ever
// created. key is the site's telemetry identity.
func (rt *Runtime) Alloc(ct *ir.CollType, localSlot *int32, key telemetry.SiteKey) Coll {
	// Register persistently first, then demote to the reusable slot:
	// two growth events per iteration-local allocation.
	c := rt.NewColl(ct)
	if localSlot != nil {
		rt.live = rt.live[:len(rt.live)-1]
		if *localSlot >= 0 {
			rt.live[*localSlot] = c
			rt.Grew()
		} else {
			*localSlot = int32(len(rt.live))
			rt.register(c)
		}
	}
	if rt.tele != nil {
		rt.tele.TrackColl(c, key)
	}
	return c
}

// NewEnum creates and registers an enumeration; global names the
// enumeration global it backs ("" for a local one).
func (rt *Runtime) NewEnum(global string, words bool) *Enum {
	e := NewEnum(words)
	rt.register(e)
	if rt.tele != nil {
		rt.tele.TrackEnum(e, global)
	}
	return e
}

// ZeroElem materializes the zero value of type t that a map insert
// stores under a new key: a fresh registered collection for a
// collection type, attributed to the outer map for telemetry.
func (rt *Runtime) ZeroElem(outer Coll, t ir.Type) Val {
	switch tt := t.(type) {
	case *ir.ScalarType:
		switch tt.Kind {
		case ir.F32, ir.F64:
			return FloatV(0)
		case ir.Str:
			return StrV("")
		default:
			return IntV(0)
		}
	case *ir.CollType:
		c := rt.NewColl(tt)
		if rt.tele != nil {
			rt.tele.TrackInner(c, outer)
		}
		return CollV(c)
	}
	return Val{}
}

func (rt *Runtime) register(c interface{ Bytes() int64 }) {
	rt.live = append(rt.live, c)
	rt.Grew()
}

// Grew counts one growth event, sampling the footprint every
// MemSampleEvery-th event (a countdown instead of a modulo: same
// sample schedule, no integer division on the mutation fast path).
func (rt *Runtime) Grew() {
	rt.untilSample--
	if rt.untilSample <= 0 {
		rt.untilSample = rt.Opts.MemSampleEvery
		rt.sampleMem()
	}
}

func (rt *Runtime) sampleMem() {
	var total int64
	for _, c := range rt.live {
		total += c.Bytes()
	}
	rt.Stats.CurBytes = total
	if total > rt.Stats.PeakBytes {
		rt.Stats.PeakBytes = total
	}
	if rt.Opts.MaxBytes > 0 && total > rt.Opts.MaxBytes && rt.Stop == nil {
		rt.Stop = &LimitError{Kind: ErrMemBudget, Bytes: total}
	}
}

// FinalizeMem folds a final footprint sample into the stats.
func (rt *Runtime) FinalizeMem() { rt.sampleMem() }

// StepBudget returns how many more steps the run may take before the
// step budget trips (unbounded without one).
func (rt *Runtime) StepBudget() uint64 {
	switch {
	case rt.Opts.MaxSteps == 0:
		return ^uint64(0)
	case rt.Stats.Steps < rt.Opts.MaxSteps:
		return rt.Opts.MaxSteps - rt.Stats.Steps
	}
	return 0
}

// Interrupted runs the full interruption test at a step checkpoint,
// steps being the global step count there. The order is fixed — step
// budget, then any pending memory-budget stop, then the context — so
// both engines report the same error kind with the same partial Stats
// when several limits trip at once. The context is polled only when
// steps&1023 == 1: a cheap deterministic schedule that still fires on
// the very first step for already-cancelled contexts. The VM runs the
// same test inline and calls this only once it has tripped, to build
// the error.
func (rt *Runtime) Interrupted(fn string, steps uint64) error {
	if rt.Opts.MaxSteps > 0 && steps > rt.Opts.MaxSteps {
		return &LimitError{Kind: ErrStepBudget, Fn: fn, Steps: steps}
	}
	if rt.Stop != nil {
		le := *rt.Stop
		le.Fn = fn
		le.Steps = steps
		return &le
	}
	if rt.Opts.Context != nil && steps&1023 == 1 && rt.Opts.Context.Err() != nil {
		return &LimitError{Kind: ErrDeadline, Fn: fn, Steps: steps}
	}
	return nil
}

// TColl forwards one collection operation to the telemetry recorder.
func (rt *Runtime) TColl(c any, k OpKind, n uint64) {
	if rt.tele != nil {
		rt.tele.CollOp(c, int(k), n)
	}
}

// Inserted accounts an insert of key into the set or map c: the
// operation and key observation for telemetry, then the growth event.
func (rt *Runtime) Inserted(c any, key Val) {
	if rt.tele != nil {
		rt.tele.CollOp(c, int(OKInsert), 1)
		rt.tele.KeyObs(c, key.Bits())
	}
	rt.Grew()
}

// IterStart accounts the start of a for-each over c and returns its
// telemetry per-element counter (nil when telemetry is off). A
// bit-structured collection pays per word scanned, not per element: a
// dense enumerated set iterates at ~1 word per 64 elements, while a
// sparsely-populated one (the RQ4 hazard) scans many empty words per
// element.
func (rt *Runtime) IterStart(c Coll) *uint64 {
	impl, words := collections.ImplNone, 0
	switch c := c.(type) {
	case *RSetBits:
		impl, words = collections.ImplBitSet, len(c.S.Words())
	case *RMapBit:
		impl, words = collections.ImplBitMap, c.M.WordCount()
	case *RMapBitVal:
		impl, words = collections.ImplBitMap, c.M.WordCount()
	}
	if impl != collections.ImplNone {
		rt.Stats.Count(impl, OKIterWord, uint64(words))
		rt.TColl(c, OKIterWord, uint64(words))
	}
	return rt.tele.IterCounter(c)
}

// Union merges src into dst with implementation-specific fast paths,
// accounting the work proportionally (Table III's union row), then
// counts the growth event.
func (rt *Runtime) Union(dst, src RSet) {
	defer rt.Grew()
	switch dd := dst.(type) {
	case *RSetBits:
		if sd, ok := src.(*RSetBits); ok {
			dd.S.UnionWith(sd.S)
			words := uint64(len(dd.S.Words()))
			rt.Stats.Count(collections.ImplBitSet, OKUnionWord, words)
			rt.TColl(dd, OKUnionWord, words)
			return
		}
	case *RSetSparse:
		if sd, ok := src.(*RSetSparse); ok {
			dd.S.UnionWith(sd.S)
			n := uint64(sd.S.Len() + 1)
			rt.Stats.Count(collections.ImplSparseBitSet, OKUnionWord, n)
			rt.TColl(dd, OKUnionWord, n)
			return
		}
	}
	if dg, ok := dst.(*rsetG); ok {
		if sg, ok := src.(*rsetG); ok {
			if df, ok := dg.s.(*collections.FlatSet[Val]); ok {
				if sf, ok := sg.s.(*collections.FlatSet[Val]); ok {
					n := uint64(df.Len() + sf.Len())
					df.UnionWith(sf)
					rt.Stats.Count(collections.ImplFlatSet, OKUnionWord, n)
					rt.TColl(dg, OKUnionWord, n)
					return
				}
			}
		}
	}
	// Generic element-wise union: iterate src, insert into dst.
	src.Iterate(func(v Val) bool {
		rt.Stats.Count(src.Impl(), OKIter, 1)
		rt.Stats.Count(dst.Impl(), OKInsert, 1)
		rt.TColl(src, OKIter, 1)
		rt.TColl(dst, OKInsert, 1)
		dst.Insert(v)
		return true
	})
}

// Emit folds v into the order-insensitive output checksum, retaining it
// when RecordOutput is set.
func (rt *Runtime) Emit(v Val) {
	rt.Stats.EmitCount++
	rt.Stats.EmitSum += collections.Mix64(v.Bits())
	if rt.Opts.RecordOutput {
		rt.Output = append(rt.Output, v)
	}
}

// Enc translates v to its identifier in e. Behaviour for values
// outside the enumeration is undefined in the paper (§III-B); they
// translate to the never-issued sentinel AbsentID so membership tests
// on the enumerated collection correctly come back false (Listing 2
// encodes the key before testing `has`).
func (rt *Runtime) Enc(e *Enum, v Val) uint64 {
	rt.Stats.Count(ImplEnum, OKEnc, 1)
	if rt.tele != nil {
		rt.tele.EnumOp(e, telemetry.OpEnc, false)
	}
	id, ok := e.Enc(v)
	if !ok {
		return uint64(AbsentID)
	}
	return uint64(id)
}

// Dec translates identifier id back to its value in e; fn names the
// executing function for the out-of-range diagnostic.
func (rt *Runtime) Dec(fn string, e *Enum, id uint64) (Val, error) {
	rt.Stats.Count(ImplEnum, OKDec, 1)
	if rt.tele != nil {
		rt.tele.EnumOp(e, telemetry.OpDec, false)
	}
	if int(id) >= e.Len() {
		return Val{}, Errf(fn, "dec of identifier %d outside [0,%d)", id, e.Len())
	}
	return e.Dec(uint32(id)), nil
}

// EnumAdd adds v to e, returning its identifier; a new value is a
// growth event. An injected corrupt-add fault fires here.
func (rt *Runtime) EnumAdd(e *Enum, v Val) uint32 {
	rt.Stats.Count(ImplEnum, OKAdd, 1)
	id, added := e.Add(v)
	if rt.tele != nil {
		rt.tele.EnumOp(e, telemetry.OpAdd, added)
	}
	if added {
		rt.Grew()
	}
	if fa := rt.Opts.Faults; fa != nil && fa.CorruptAdd() {
		e.CorruptSlot()
	}
	return id
}

// execErr is a runtime error raised by the executing program.
type execErr struct {
	fn  string
	msg string
}

func (e *execErr) Error() string { return "@" + e.fn + ": " + e.msg }

// Errf formats a runtime error of function fn as "@fn: msg": the one
// formatter behind both engines' diagnostics.
func Errf(fn, format string, args ...any) error {
	return &execErr{fn: fn, msg: fmt.Sprintf(format, args...)}
}
