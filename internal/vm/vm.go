// Package vm is the fast second execution engine for MEMOIR programs:
// a switch-dispatch register VM over the bytecode produced by
// internal/bytecode. It executes the same runtime values, collections
// and enumerations as the tree-walking interpreter (internal/interp)
// and embeds the same interp.Runtime, which holds the measurement
// surface — per-(implementation, operation) counts, sparse/dense
// classification, step counts, the peak-memory model and the emit
// checksum are identical for identical programs and inputs, so every
// experiment can run on either engine.
//
// The speed comes from work the compiler already did: type dispatch is
// baked into specialized opcodes, constants are preloaded registers,
// structured control flow is jumps over a flat instruction array, and
// operand access is direct frame indexing. The dispatch loop keeps its
// step and scalar-op tallies in locals (flushed into the shared Stats
// at every boundary the interpreter could observe: nested frames, the
// ROI marker, and every exit) so the hot path performs no shared-state
// read-modify-write per instruction while remaining count-identical.
package vm

import (
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"

	"memoir/internal/bytecode"
	"memoir/internal/collections"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/telemetry"
)

// VM executes a compiled MEMOIR program. The run state and every
// piece of accounting it shares with the interpreter live in the
// embedded interp.Runtime.
type VM struct {
	interp.Runtime
	Prog *bytecode.Prog

	// Enumeration globals, indexed parallel to Prog.Globals.
	globals []*interp.Enum

	// localSlot[site] is the reusable live-registry slot of an
	// iteration-local allocation site (-1 until first allocation).
	localSlot []int32

	// The register stack: frames are carved from chunks that are kept
	// for reuse, so once the stack has grown to a program's call depth
	// a call allocates nothing. sp is the next free register of
	// chunks[ci]; marks[i] is chunk i's top when chunk i+1 was entered.
	chunks [][]interp.Val
	chunk0 [1][]interp.Val // backs chunks until a second chunk is needed
	marks  []int
	ci, sp int

	// iters is the stack of active inlined for-each cursors; each run
	// segment owns the entries above the length it started at.
	iters []iterState
}

// New returns a VM for the compiled program.
func New(prog *bytecode.Prog, opts interp.Options) *VM {
	m := &VM{
		Runtime:   interp.NewRuntime(opts),
		Prog:      prog,
		globals:   make([]*interp.Enum, len(prog.Globals)),
		localSlot: make([]int32, len(prog.AllocSites)),
	}
	for i := range m.localSlot {
		m.localSlot[i] = -1
	}
	return m
}

// global returns the enumeration global with the given Prog.Globals
// index, creating it on first use (with word keys when words is set).
func (m *VM) global(idx int32, words bool) *interp.Enum {
	e := m.globals[idx]
	if e == nil {
		e = m.NewEnum(m.Prog.Globals[idx], words)
		m.globals[idx] = e
	}
	return e
}

// Run executes the named function with the given arguments and returns
// its result. A Go panic during execution (an engine bug or an
// injected fault) is recovered here and returned as a *LimitError
// wrapping interp.ErrRuntimePanic, mirroring the interpreter's Run.
func (m *VM) Run(name string, args ...interp.Val) (ret interp.Val, err error) {
	idx, ok := m.Prog.ByName[name]
	if !ok {
		return interp.Val{}, fmt.Errorf("vm: no function @%s", name)
	}
	f := m.Prog.Funcs[idx]
	ci, sp, iters := m.ci, m.sp, len(m.iters)
	defer func() {
		if r := recover(); r != nil {
			m.unwind(ci, sp, iters)
			ret, err = interp.Val{}, interp.RecoveredError(r, f.Name, m.Stats.Steps)
		}
	}()
	if len(args) != len(f.ParamRegs) {
		return interp.Val{}, interp.Errf(f.Name, "called with %d args, want %d", len(args), len(f.ParamRegs))
	}
	fr := m.enter(f)
	for i, r := range f.ParamRegs {
		fr[r] = args[i]
	}
	return m.exec(f, fr)
}

// The first stack chunk holds firstFrames frames of the entry function
// (at least minChunk registers); later chunks double.
const (
	firstFrames = 4
	minChunk    = 64
)

// enter pushes a frame for f with its constant pool preloaded.
func (m *VM) enter(f *bytecode.Func) []interp.Val {
	n := f.FrameLen
	if m.chunks == nil || m.sp+n > len(m.chunks[m.ci]) {
		m.nextChunk(n)
	}
	fr := m.chunks[m.ci][m.sp : m.sp+n : m.sp+n]
	m.sp += n
	copy(fr[f.NumSlots:], f.Consts)
	return fr
}

// nextChunk moves the stack top to a chunk with room for n registers,
// reusing a retained chunk when it is large enough.
func (m *VM) nextChunk(n int) {
	if m.chunks == nil {
		m.chunk0[0] = make([]interp.Val, max(firstFrames*n, minChunk))
		m.chunks = m.chunk0[:]
		return
	}
	m.marks = append(m.marks[:m.ci], m.sp)
	m.ci++
	m.sp = 0
	if m.ci < len(m.chunks) && len(m.chunks[m.ci]) >= n {
		return
	}
	m.chunks = append(m.chunks[:m.ci], make([]interp.Val, max(2*len(m.chunks[m.ci-1]), n)))
}

// exec runs f's body in fr, the topmost frame, then pops fr.
func (m *VM) exec(f *bytecode.Func, fr []interp.Val) (interp.Val, error) {
	ret, _, err := m.run(f, fr, 0, int32(len(f.Code)))
	m.pop(fr)
	return ret, err
}

// pop releases fr, the topmost frame, clearing it so the GC does not
// retain what its registers referenced.
func (m *VM) pop(fr []interp.Val) {
	clear(fr)
	m.sp -= len(fr)
	if m.sp == 0 && m.ci > 0 {
		m.ci--
		m.sp = m.marks[m.ci]
	}
}

// unwind restores the register and cursor stacks to a depth saved
// before a call that panicked, clearing everything above it.
func (m *VM) unwind(ci, sp, iters int) {
	if m.chunks != nil {
		clear(m.chunks[ci][sp:])
		for _, c := range m.chunks[ci+1:] {
			clear(c)
		}
	}
	m.ci, m.sp = ci, sp
	clear(m.iters[iters:])
	m.iters = m.iters[:iters]
}

// get reads an operand: a plain register, or a register followed by a
// compiled nesting path. The dispatch loop inlines the plain-register
// case by hand; this helper remains for argument lists.
func (m *VM) get(f *bytecode.Func, fr []interp.Val, o bytecode.Operand) (interp.Val, error) {
	v := fr[o.Reg]
	if o.Path < 0 {
		return v, nil
	}
	return m.walkPath(f, fr, v, o.Path)
}

// walkPath mirrors interp.(*Interp).resolve: intermediate map and
// sequence lookups are real dynamic accesses, counted as reads on the
// outer container, with identical check ordering and diagnostics.
func (m *VM) walkPath(f *bytecode.Func, fr []interp.Val, cur interp.Val, path int32) (interp.Val, error) {
	for _, ix := range f.Paths[path] {
		switch ix.Kind {
		case ir.IdxField:
			if cur.K != interp.VTuple || int(ix.Num) >= len(cur.Tuple()) {
				return interp.Val{}, interp.Errf(f.Name, "tuple access .%d on %v", ix.Num, cur)
			}
			cur = cur.Tuple()[ix.Num]
		default:
			if cur.K != interp.VColl {
				return interp.Val{}, interp.Errf(f.Name, "indexing non-collection %v", cur)
			}
			var key interp.Val
			switch ix.Kind {
			case ir.IdxValue:
				key = fr[ix.Reg]
			case ir.IdxConst:
				key = interp.IntV(ix.Num)
			case ir.IdxEnd:
				return interp.Val{}, interp.Errf(f.Name, "end index cannot be resolved as a value")
			}
			switch c := cur.Ref().(type) {
			case *interp.RMapBitVal:
				m.Stats.Count(collections.ImplBitMap, interp.OKRead, 1)
				m.TColl(c, interp.OKRead, 1)
				v, ok := c.M.Get(uint32(key.I))
				if !ok {
					return interp.Val{}, interp.Errf(f.Name, "nested read of missing key %v", key)
				}
				cur = v
			case *interp.RMapBit:
				m.Stats.Count(collections.ImplBitMap, interp.OKRead, 1)
				m.TColl(c, interp.OKRead, 1)
				w, ok := c.M.Get(uint32(key.I))
				if !ok {
					return interp.Val{}, interp.Errf(f.Name, "nested read of missing key %v", key)
				}
				cur = interp.IntV(w)
			case *interp.RMapHash:
				m.Stats.Count(collections.ImplHashMap, interp.OKRead, 1)
				m.TColl(c, interp.OKRead, 1)
				v, ok := c.Get(key)
				if !ok {
					return interp.Val{}, interp.Errf(f.Name, "nested read of missing key %v", key)
				}
				cur = v
			case interp.RMap:
				m.Stats.Count(c.Impl(), interp.OKRead, 1)
				m.TColl(c, interp.OKRead, 1)
				v, ok := c.Get(key)
				if !ok {
					return interp.Val{}, interp.Errf(f.Name, "nested read of missing key %v", key)
				}
				cur = v
			case *interp.RSeqArr:
				i := int(key.I)
				if i < 0 || i >= c.S.Len() {
					return interp.Val{}, interp.Errf(f.Name, "nested seq index %d out of range [0,%d)", i, c.S.Len())
				}
				m.Stats.Count(collections.ImplArray, interp.OKRead, 1)
				m.TColl(c, interp.OKRead, 1)
				cur = interp.IntV(c.S.Get(i))
			case interp.RSeq:
				i := int(key.I)
				if i < 0 || i >= c.Len() {
					return interp.Val{}, interp.Errf(f.Name, "nested seq index %d out of range [0,%d)", i, c.Len())
				}
				m.Stats.Count(c.Impl(), interp.OKRead, 1)
				m.TColl(c, interp.OKRead, 1)
				cur = c.Get(i)
			default:
				return interp.Val{}, interp.Errf(f.Name, "indexing into a set")
			}
		}
	}
	return cur, nil
}

func cmpHolds(c int, k ir.CmpKind) bool {
	switch k {
	case ir.CmpLt:
		return c < 0
	case ir.CmpLe:
		return c <= 0
	case ir.CmpGt:
		return c > 0
	case ir.CmpGe:
		return c >= 0
	}
	return false
}

func b01(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// iterState is one active inlined for-each loop. Instead of re-entering
// run per element, the dispatch loop narrows hi to the body's end and
// advances the topmost state whenever pc reaches it, so loop bodies
// execute in the same frame with zero per-element call overhead.
// Containers whose iteration cannot be paused at an element (sparse
// bitsets, the generic Swiss/Flat wrappers) keep the callback path.
type iterState struct {
	kind   uint8
	kReg   int32
	vReg   int32
	bodyLo int32
	contPC int32 // resume pc once the loop completes
	retHi  int32 // enclosing segment's hi to restore
	count  *uint64
	tcount *uint64      // telemetry per-element counter, nil when off
	idx    int          // seq position / hash slot cursor
	wi     int          // dense word index
	w      uint64       // remaining bits of the current word
	elems  []interp.Val // boxed seq backing storage
	words  []uint64     // dense presence words, or word seq storage
	state  []uint8      // hash slot states
	bm     *collections.BitMap[interp.Val]
	bmw    *collections.BitMap[uint64]
	vmap   *interp.ValMap
	vset   *interp.ValSet
}

const (
	itSeq uint8 = iota
	itSeqWords
	itDense
	itHashMap
	itHashSet
)

// run executes the code segment [lo, hi) of f against frame fr. The
// bool result reports that an OpReturn/OpReturnVoid fired (only
// possible at segment nesting depth zero — returns inside loops are
// compiled to raises).
//
// Step and scalar-op counts accumulate in locals against a
// precomputed budget and are flushed into m.Stats at the out label,
// before every nested frame (call or for-each body) and before the
// ROI snapshot — every point where shared state becomes observable.
// All exits funnel through the out label so the flush is unmissable;
// a deferred flush would force the accumulators onto the heap.
func (m *VM) run(f *bytecode.Func, fr []interp.Val, lo, hi int32) (rv interp.Val, returned bool, err error) {
	code := f.Code
	st := m.Stats
	var steps, nscalar uint64
	budget := m.StepBudget()
	base := len(m.iters) // this segment's cursors are m.iters[base:]
	pc := lo
dispatch:
	for {
		if pc >= hi {
			if len(m.iters) == base {
				break
			}
			// End of an inlined loop body: advance the topmost
			// iteration, or pop it and resume the enclosing segment.
			it := &m.iters[len(m.iters)-1]
			switch it.kind {
			case itSeq:
				if it.idx < len(it.elems) {
					*it.count++
					if it.tcount != nil {
						*it.tcount++
					}
					fr[it.kReg], fr[it.vReg] = interp.IntV(uint64(it.idx)), it.elems[it.idx]
					it.idx++
					pc = it.bodyLo
					continue dispatch
				}
			case itSeqWords:
				if it.idx < len(it.words) {
					*it.count++
					if it.tcount != nil {
						*it.tcount++
					}
					fr[it.kReg], fr[it.vReg] = interp.IntV(uint64(it.idx)), interp.IntV(it.words[it.idx])
					it.idx++
					pc = it.bodyLo
					continue dispatch
				}
			case itDense:
				for it.w == 0 && it.wi+1 < len(it.words) {
					it.wi++
					it.w = it.words[it.wi]
				}
				if it.w != 0 {
					t := mathbits.TrailingZeros64(it.w)
					it.w &= it.w - 1
					k := uint32(it.wi*64 + t)
					*it.count++
					if it.tcount != nil {
						*it.tcount++
					}
					kv := interp.IntV(uint64(k))
					switch {
					case it.bmw != nil:
						fr[it.kReg], fr[it.vReg] = kv, interp.IntV(it.bmw.At(k))
					case it.bm != nil:
						fr[it.kReg], fr[it.vReg] = kv, it.bm.At(k)
					default:
						fr[it.kReg], fr[it.vReg] = kv, kv
					}
					pc = it.bodyLo
					continue dispatch
				}
			case itHashMap:
				for it.idx < len(it.state) {
					i := it.idx
					it.idx++
					if it.state[i] == interp.SlotFull {
						*it.count++
						if it.tcount != nil {
							*it.tcount++
						}
						fr[it.kReg], fr[it.vReg] = it.vmap.SlotAt(i)
						pc = it.bodyLo
						continue dispatch
					}
				}
			case itHashSet:
				for it.idx < len(it.state) {
					i := it.idx
					it.idx++
					if it.state[i] == interp.SlotFull {
						*it.count++
						if it.tcount != nil {
							*it.tcount++
						}
						k := it.vset.SlotAt(i)
						fr[it.kReg], fr[it.vReg] = k, k
						pc = it.bodyLo
						continue dispatch
					}
				}
			}
			pc = it.contPC
			hi = it.retHi
			*it = iterState{}
			m.iters = m.iters[:len(m.iters)-1]
			continue
		}
		in := &code[pc]
		pc++
		op := in.Op
		if op > bytecode.OpJumpIfNot {
			// Every stepping opcode is one interpreter step; the
			// interruption test runs everywhere the interpreter runs it
			// (each instruction and each do-while iteration, but not
			// the for-each entry step), in the same fixed order — step
			// budget, pending memory stop, context — so both engines
			// abort at the same dynamic point with the same error kind.
			// The test stays inline and calls Interrupted only to build
			// the error of a source that has tripped: one more call here
			// that can return into the loop (the context poll is the
			// only one) makes the compiler spill loop state on every
			// step.
			steps++
			if m.Limited && op != bytecode.OpForEach {
				if steps > budget || m.Stop != nil {
					err = m.Interrupted(f.Name, st.Steps+steps)
					goto out
				}
				if m.Opts.Context != nil && (st.Steps+steps)&1023 == 1 && m.Opts.Context.Err() != nil {
					err = m.Interrupted(f.Name, st.Steps+steps)
					goto out
				}
			}
		}
		switch op {
		case bytecode.OpNop, bytecode.OpStep:

		case bytecode.OpMove:
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpJump:
			pc = in.Aux

		case bytecode.OpJumpIf:
			if fr[in.A.Reg].Bool() {
				pc = in.Aux
			}

		case bytecode.OpJumpIfNot:
			if !fr[in.A.Reg].Bool() {
				pc = in.Aux
			}

		case bytecode.OpForEach:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			if cv.K != interp.VColl {
				err = interp.Errf(f.Name, "for-each over non-collection %v", cv)
				goto out
			}
			coll := cv.Coll()
			tcount := m.IterStart(coll)
			iterCount := &st.Counts[coll.Impl()][interp.OKIter]
			kReg, vReg := in.Dst, in.Dst2
			bodyLo, bodyHi := in.Aux, in.Aux2
			// Pausable containers iterate inline: push an iterState over
			// the same storage their Iterate methods range over (same
			// visit order, same behaviour under mid-iteration mutation)
			// and let the dispatch loop advance it. The local tallies
			// keep accumulating — the body runs in this same frame.
			it := iterState{kReg: kReg, vReg: vReg, bodyLo: bodyLo, contPC: bodyHi, retHi: hi,
				count: iterCount, tcount: tcount, wi: -1}
			switch c := coll.(type) {
			case *interp.RSeqArr:
				it.kind, it.words = itSeqWords, c.S.Slice()
			case *interp.RSeqVal:
				it.kind, it.elems = itSeq, c.S.Slice()
			case *interp.RSetBits:
				it.kind, it.words = itDense, c.S.Words()
			case *interp.RMapBit:
				it.kind, it.words, it.bmw = itDense, c.M.Words(), c.M
			case *interp.RMapBitVal:
				it.kind, it.words, it.bm = itDense, c.M.Words(), c.M
			case *interp.RMapHash:
				it.kind, it.state, it.vmap = itHashMap, c.States(), &c.ValMap
			case *interp.RSetHash:
				it.kind, it.state, it.vset = itHashSet, c.States(), &c.ValSet
			default:
				// Callback path: the body runs in nested frames
				// accounting directly against the shared Stats, so
				// flush the local tallies first and resync the budget
				// after.
				st.Steps += steps
				st.Counts[collections.ImplNone][interp.OKScalar] += nscalar
				steps, nscalar = 0, 0
				var iterErr error
				step := func(k, v interp.Val) bool {
					*iterCount++
					if tcount != nil {
						*tcount++
					}
					fr[kReg], fr[vReg] = k, v
					_, ret2, err2 := m.run(f, fr, bodyLo, bodyHi)
					if err2 != nil {
						iterErr = err2
						return false
					}
					if ret2 {
						iterErr = interp.Errf(f.Name, "return inside for-each is unsupported")
						return false
					}
					return true
				}
				switch c := coll.(type) {
				case *interp.RSetSparse:
					c.S.Iterate(func(k uint32) bool { v := interp.IntV(uint64(k)); return step(v, v) })
				case interp.RSeq:
					c.Iterate(func(i int, v interp.Val) bool { return step(interp.IntV(uint64(i)), v) })
				case interp.RSet:
					c.Iterate(func(v interp.Val) bool { return step(v, v) })
				case interp.RMap:
					c.Iterate(step)
				}
				if iterErr != nil {
					err = iterErr
					goto out
				}
				budget = m.StepBudget()
				pc = bodyHi
				continue
			}
			m.iters = append(m.iters, it)
			pc, hi = bodyHi, bodyHi

		case bytecode.OpReturn:
			rv = fr[in.A.Reg]
			if in.A.Path >= 0 {
				if rv, err = m.walkPath(f, fr, rv, in.A.Path); err != nil {
					goto out
				}
			}
			if len(m.iters) > base {
				err = interp.Errf(f.Name, "return inside for-each is unsupported")
				goto out
			}
			returned = true
			goto out

		case bytecode.OpReturnVoid:
			if len(m.iters) > base {
				err = interp.Errf(f.Name, "return inside for-each is unsupported")
				goto out
			}
			returned = true
			goto out

		case bytecode.OpCall:
			callee := m.Prog.Funcs[in.Aux]
			list := f.ArgLists[in.Aux2]
			if len(list) != len(callee.ParamRegs) {
				// The arguments are still evaluated first: their
				// errors and nested-read counts precede the arity error.
				for _, o := range list {
					if _, err = m.get(f, fr, o); err != nil {
						goto out
					}
				}
				err = interp.Errf(callee.Name, "called with %d args, want %d", len(list), len(callee.ParamRegs))
				goto out
			}
			// Arguments go straight into the callee's parameter
			// registers: its frame is pushed first, and popped again if
			// an argument fails to resolve.
			cfr := m.enter(callee)
			for i, o := range list {
				var v interp.Val
				if v, err = m.get(f, fr, o); err != nil {
					m.pop(cfr)
					goto out
				}
				cfr[callee.ParamRegs[i]] = v
			}
			st.Steps += steps
			st.Counts[collections.ImplNone][interp.OKScalar] += nscalar
			steps, nscalar = 0, 0
			var ret interp.Val
			if ret, err = m.exec(callee, cfr); err != nil {
				goto out
			}
			budget = m.StepBudget()
			if in.Dst >= 0 {
				fr[in.Dst] = ret
			}

		case bytecode.OpRaise:
			err = errors.New(m.Prog.Msgs[in.Aux])
			goto out

		case bytecode.OpNewColl:
			if m.Opts.Faults != nil {
				// An injected allocation failure panics past the out
				// label: flush the tallies first so the Stats a recovered
				// Run reports match the interpreter's.
				st.Steps += steps
				st.Counts[collections.ImplNone][interp.OKScalar] += nscalar
				budget -= steps
				steps, nscalar = 0, 0
			}
			site := &m.Prog.AllocSites[in.Aux]
			var slot *int32
			if site.IterLocal {
				slot = &m.localSlot[in.Aux]
			}
			fr[in.Dst] = interp.CollV(m.Alloc(site.Type, slot, telemetry.SiteKey{Fn: site.Fn, Alloc: site.Alloc}))

		case bytecode.OpNewEnum:
			fr[in.Dst] = interp.EnumV(m.NewEnum("", in.Imm != 0))

		case bytecode.OpEnumGlobal:
			fr[in.Dst] = interp.EnumV(m.global(in.Aux, in.Imm != 0))

		case bytecode.OpReadMap:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			var v interp.Val
			var ok bool
			switch c := cv.Ref().(type) {
			case *interp.RMapBit:
				st.Count(collections.ImplBitMap, interp.OKRead, 1)
				m.TColl(c, interp.OKRead, 1)
				v.I, ok = c.M.Get(uint32(key.I))
			case *interp.RMapBitVal:
				st.Count(collections.ImplBitMap, interp.OKRead, 1)
				m.TColl(c, interp.OKRead, 1)
				v, ok = c.M.Get(uint32(key.I))
			case *interp.RMapHash:
				st.Count(collections.ImplHashMap, interp.OKRead, 1)
				m.TColl(c, interp.OKRead, 1)
				v, ok = c.Get(key)
			case interp.RMap:
				st.Count(c.Impl(), interp.OKRead, 1)
				m.TColl(c, interp.OKRead, 1)
				v, ok = c.Get(key)
			default:
				err = interp.Errf(f.Name, "read on set")
				goto out
			}
			if !ok {
				err = interp.Errf(f.Name, "read of missing key %v", key)
				goto out
			}
			fr[in.Dst] = v

		case bytecode.OpReadSeq:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			switch c := cv.Ref().(type) {
			case *interp.RSeqArr:
				i := int(key.I)
				if i < 0 || i >= c.S.Len() {
					err = interp.Errf(f.Name, "seq read index %d out of range [0,%d)", i, c.S.Len())
					goto out
				}
				st.Count(collections.ImplArray, interp.OKRead, 1)
				m.TColl(c, interp.OKRead, 1)
				fr[in.Dst] = interp.IntV(c.S.Get(i))
			case *interp.RSeqVal:
				i := int(key.I)
				if i < 0 || i >= c.S.Len() {
					err = interp.Errf(f.Name, "seq read index %d out of range [0,%d)", i, c.S.Len())
					goto out
				}
				st.Count(collections.ImplArray, interp.OKRead, 1)
				m.TColl(c, interp.OKRead, 1)
				fr[in.Dst] = c.S.Get(i)
			case interp.RSeq:
				i := int(key.I)
				if i < 0 || i >= c.Len() {
					err = interp.Errf(f.Name, "seq read index %d out of range [0,%d)", i, c.Len())
					goto out
				}
				st.Count(c.Impl(), interp.OKRead, 1)
				m.TColl(c, interp.OKRead, 1)
				fr[in.Dst] = c.Get(i)
			default:
				err = interp.Errf(f.Name, "read on set")
				goto out
			}

		case bytecode.OpHasSet:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			var has bool
			switch c := cv.Ref().(type) {
			case *interp.RSetBits:
				st.Count(collections.ImplBitSet, interp.OKHas, 1)
				m.TColl(c, interp.OKHas, 1)
				has = c.S.Has(uint32(key.I))
			case *interp.RSetSparse:
				st.Count(collections.ImplSparseBitSet, interp.OKHas, 1)
				m.TColl(c, interp.OKHas, 1)
				has = c.S.Has(uint32(key.I))
			case *interp.RSetHash:
				st.Count(collections.ImplHashSet, interp.OKHas, 1)
				m.TColl(c, interp.OKHas, 1)
				has = c.Has(key)
			case interp.RSet:
				st.Count(c.Impl(), interp.OKHas, 1)
				m.TColl(c, interp.OKHas, 1)
				has = c.Has(key)
			default:
				err = interp.Errf(f.Name, "has on seq")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(has)

		case bytecode.OpHasMap:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			var has bool
			switch c := cv.Ref().(type) {
			case *interp.RMapBit:
				st.Count(collections.ImplBitMap, interp.OKHas, 1)
				m.TColl(c, interp.OKHas, 1)
				has = c.M.Has(uint32(key.I))
			case *interp.RMapBitVal:
				st.Count(collections.ImplBitMap, interp.OKHas, 1)
				m.TColl(c, interp.OKHas, 1)
				has = c.M.Has(uint32(key.I))
			case *interp.RMapHash:
				st.Count(collections.ImplHashMap, interp.OKHas, 1)
				m.TColl(c, interp.OKHas, 1)
				has = c.Has(key)
			case interp.RMap:
				st.Count(c.Impl(), interp.OKHas, 1)
				m.TColl(c, interp.OKHas, 1)
				has = c.HasKey(key)
			default:
				err = interp.Errf(f.Name, "has on seq")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(has)

		case bytecode.OpSize:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			c := cv.Coll()
			st.Count(c.Impl(), interp.OKSize, 1)
			m.TColl(c, interp.OKSize, 1)
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, uint64(c.Len())

		case bytecode.OpWriteMap:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			val := fr[in.C.Reg]
			if in.C.Path >= 0 {
				if val, err = m.walkPath(f, fr, val, in.C.Path); err != nil {
					goto out
				}
			}
			switch c := cv.Ref().(type) {
			case *interp.RMapBit:
				st.Count(collections.ImplBitMap, interp.OKWrite, 1)
				if !c.M.Has(uint32(key.I)) {
					err = interp.Errf(f.Name, "write to missing key %v (insert first)", key)
					goto out
				}
				c.M.Put(uint32(key.I), val.I)
				m.TColl(c, interp.OKWrite, 1)
			case *interp.RMapBitVal:
				st.Count(collections.ImplBitMap, interp.OKWrite, 1)
				if !c.M.Has(uint32(key.I)) {
					err = interp.Errf(f.Name, "write to missing key %v (insert first)", key)
					goto out
				}
				c.M.Put(uint32(key.I), val)
				m.TColl(c, interp.OKWrite, 1)
			case *interp.RMapHash:
				st.Count(collections.ImplHashMap, interp.OKWrite, 1)
				if !c.Has(key) {
					err = interp.Errf(f.Name, "write to missing key %v (insert first)", key)
					goto out
				}
				c.Put(key, val)
				m.TColl(c, interp.OKWrite, 1)
			case interp.RMap:
				st.Count(c.Impl(), interp.OKWrite, 1)
				if !c.HasKey(key) {
					err = interp.Errf(f.Name, "write to missing key %v (insert first)", key)
					goto out
				}
				c.Put(key, val)
				m.TColl(c, interp.OKWrite, 1)
			default:
				err = interp.Errf(f.Name, "write on set")
				goto out
			}
			m.Grew()
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpWriteSeq:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			val := fr[in.C.Reg]
			if in.C.Path >= 0 {
				if val, err = m.walkPath(f, fr, val, in.C.Path); err != nil {
					goto out
				}
			}
			c, ok := cv.Coll().(interp.RSeq)
			if !ok {
				err = interp.Errf(f.Name, "write on set")
				goto out
			}
			i := int(key.I)
			if i < 0 || i >= c.Len() {
				err = interp.Errf(f.Name, "seq write index %d out of range", i)
				goto out
			}
			st.Count(c.Impl(), interp.OKWrite, 1)
			c.Set(i, val)
			m.TColl(c, interp.OKWrite, 1)
			m.Grew()
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpInsertSet:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			switch c := cv.Ref().(type) {
			case *interp.RSetBits:
				st.Count(collections.ImplBitSet, interp.OKInsert, 1)
				c.S.Insert(uint32(key.I))
			case *interp.RSetSparse:
				st.Count(collections.ImplSparseBitSet, interp.OKInsert, 1)
				c.S.Insert(uint32(key.I))
			case *interp.RSetHash:
				st.Count(collections.ImplHashSet, interp.OKInsert, 1)
				c.Insert(key)
			case interp.RSet:
				st.Count(c.Impl(), interp.OKInsert, 1)
				c.Insert(key)
			}
			m.Inserted(cv.Ref(), key)
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpInsertMap:
			if m.Opts.Faults != nil {
				// A boxed zero value may be a collection whose injected
				// allocation failure panics: flush as at OpNewColl.
				st.Steps += steps
				st.Counts[collections.ImplNone][interp.OKScalar] += nscalar
				budget -= steps
				steps, nscalar = 0, 0
			}
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			switch c := cv.Ref().(type) {
			case *interp.RMapBit:
				// An integer value's zero is the word 0: no collection
				// to allocate or track.
				st.Count(collections.ImplBitMap, interp.OKInsert, 1)
				if !c.M.Has(uint32(key.I)) {
					c.M.Put(uint32(key.I), 0)
				}
			case *interp.RMapBitVal:
				st.Count(collections.ImplBitMap, interp.OKInsert, 1)
				if !c.M.Has(uint32(key.I)) {
					c.M.Put(uint32(key.I), m.ZeroElem(c, c.ElemType()))
				}
			case *interp.RMapHash:
				st.Count(collections.ImplHashMap, interp.OKInsert, 1)
				if !c.Has(key) {
					c.Put(key, m.ZeroElem(c, c.ElemType()))
				}
			case interp.RMap:
				st.Count(c.Impl(), interp.OKInsert, 1)
				if !c.HasKey(key) {
					c.Put(key, m.ZeroElem(c, c.ElemType()))
				}
			}
			m.Inserted(cv.Ref(), key)
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpInsertSeqEnd:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			val := fr[in.C.Reg]
			if in.C.Path >= 0 {
				if val, err = m.walkPath(f, fr, val, in.C.Path); err != nil {
					goto out
				}
			}
			switch c := cv.Ref().(type) {
			case *interp.RSeqArr:
				st.Count(collections.ImplArray, interp.OKInsert, 1)
				m.TColl(c, interp.OKInsert, 1)
				c.S.Append(val.I)
			case *interp.RSeqVal:
				st.Count(collections.ImplArray, interp.OKInsert, 1)
				m.TColl(c, interp.OKInsert, 1)
				c.S.Append(val)
			case interp.RSeq:
				st.Count(c.Impl(), interp.OKInsert, 1)
				m.TColl(c, interp.OKInsert, 1)
				c.Append(val)
			}
			m.Grew()
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpInsertSeqAt:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			val := fr[in.C.Reg]
			if in.C.Path >= 0 {
				if val, err = m.walkPath(f, fr, val, in.C.Path); err != nil {
					goto out
				}
			}
			if c, ok := cv.Coll().(interp.RSeq); ok {
				st.Count(c.Impl(), interp.OKInsert, 1)
				m.TColl(c, interp.OKInsert, 1)
				var pv interp.Val
				if pv, err = m.get(f, fr, in.B); err != nil {
					goto out
				}
				i := int(pv.I)
				if i < 0 || i > c.Len() {
					err = interp.Errf(f.Name, "seq insert index %d out of range", i)
					goto out
				}
				c.InsertAt(i, val)
			}
			m.Grew()
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpRemoveSet:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			if c, ok := cv.Coll().(interp.RSet); ok {
				st.Count(c.Impl(), interp.OKRemove, 1)
				c.Remove(key)
				m.TColl(c, interp.OKRemove, 1)
			}
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpRemoveMap:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			if c, ok := cv.Coll().(interp.RMap); ok {
				st.Count(c.Impl(), interp.OKRemove, 1)
				c.Remove(key)
				m.TColl(c, interp.OKRemove, 1)
			}
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpRemoveSeq:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			key := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if key, err = m.walkPath(f, fr, key, in.B.Path); err != nil {
					goto out
				}
			}
			if c, ok := cv.Coll().(interp.RSeq); ok {
				i := int(key.I)
				if i < 0 || i >= c.Len() {
					err = interp.Errf(f.Name, "seq remove index %d out of range", i)
					goto out
				}
				st.Count(c.Impl(), interp.OKRemove, 1)
				c.RemoveAt(i)
				m.TColl(c, interp.OKRemove, 1)
			}
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpClear:
			cv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if cv, err = m.walkPath(f, fr, cv, in.A.Path); err != nil {
					goto out
				}
			}
			c := cv.Coll()
			st.Count(c.Impl(), interp.OKClear, 1)
			c.Clear()
			m.TColl(c, interp.OKClear, 1)
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpUnion:
			dv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if dv, err = m.walkPath(f, fr, dv, in.A.Path); err != nil {
					goto out
				}
			}
			sv := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if sv, err = m.walkPath(f, fr, sv, in.B.Path); err != nil {
					goto out
				}
			}
			dst, ok1 := dv.Coll().(interp.RSet)
			src, ok2 := sv.Coll().(interp.RSet)
			if !ok1 || !ok2 {
				err = interp.Errf(f.Name, "union on non-sets")
				goto out
			}
			m.Union(dst, src)
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpEnc:
			v := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if v, err = m.walkPath(f, fr, v, in.B.Path); err != nil {
					goto out
				}
			}
			id := m.Enc(fr[in.A.Reg].Enum(), v)
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, id

		case bytecode.OpDec:
			idv := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if idv, err = m.walkPath(f, fr, idv, in.B.Path); err != nil {
					goto out
				}
			}
			var v interp.Val
			if v, err = m.Dec(f.Name, fr[in.A.Reg].Enum(), idv.I); err != nil {
				goto out
			}
			fr[in.Dst] = v

		case bytecode.OpEnumAdd:
			e := fr[in.A.Reg]
			v := fr[in.B.Reg]
			if in.B.Path >= 0 {
				if v, err = m.walkPath(f, fr, v, in.B.Path); err != nil {
					goto out
				}
			}
			id := m.EnumAdd(e.Enum(), v)
			fr[in.Dst] = e
			if in.Dst2 >= 0 {
				d := &fr[in.Dst2]
				d.K, d.I = interp.VInt, uint64(id)
			}

		case bytecode.OpAddI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I+fr[in.B.Reg].I

		case bytecode.OpSubI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I-fr[in.B.Reg].I

		case bytecode.OpMulI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I*fr[in.B.Reg].I

		case bytecode.OpDivU:
			nscalar++
			b := fr[in.B.Reg].I
			if b == 0 {
				err = interp.Errf(f.Name, "division by zero")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I/b

		case bytecode.OpDivS:
			nscalar++
			b := fr[in.B.Reg].I
			if b == 0 {
				err = interp.Errf(f.Name, "division by zero")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, uint64(int64(fr[in.A.Reg].I)/int64(b))

		case bytecode.OpRemU:
			nscalar++
			b := fr[in.B.Reg].I
			if b == 0 {
				err = interp.Errf(f.Name, "remainder by zero")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I%b

		case bytecode.OpRemS:
			nscalar++
			b := fr[in.B.Reg].I
			if b == 0 {
				err = interp.Errf(f.Name, "remainder by zero")
				goto out
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, uint64(int64(fr[in.A.Reg].I)%int64(b))

		case bytecode.OpAndI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I&fr[in.B.Reg].I

		case bytecode.OpOrI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I|fr[in.B.Reg].I

		case bytecode.OpXorI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I^fr[in.B.Reg].I

		case bytecode.OpShlI:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I<<(fr[in.B.Reg].I&63)

		case bytecode.OpShrU:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, fr[in.A.Reg].I>>(fr[in.B.Reg].I&63)

		case bytecode.OpShrS:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, uint64(int64(fr[in.A.Reg].I)>>(fr[in.B.Reg].I&63))

		case bytecode.OpMinU:
			nscalar++
			a, b := fr[in.A.Reg].I, fr[in.B.Reg].I
			if b < a {
				a = b
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, a

		case bytecode.OpMinS:
			nscalar++
			a, b := fr[in.A.Reg].I, fr[in.B.Reg].I
			if int64(b) < int64(a) {
				a = b
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, a

		case bytecode.OpMaxU:
			nscalar++
			a, b := fr[in.A.Reg].I, fr[in.B.Reg].I
			if b > a {
				a = b
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, a

		case bytecode.OpMaxS:
			nscalar++
			a, b := fr[in.A.Reg].I, fr[in.B.Reg].I
			if int64(b) > int64(a) {
				a = b
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, a

		case bytecode.OpAddF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(fr[in.A.Reg].Flt()+fr[in.B.Reg].Flt())

		case bytecode.OpSubF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(fr[in.A.Reg].Flt()-fr[in.B.Reg].Flt())

		case bytecode.OpMulF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(fr[in.A.Reg].Flt()*fr[in.B.Reg].Flt())

		case bytecode.OpDivF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(fr[in.A.Reg].Flt()/fr[in.B.Reg].Flt())

		case bytecode.OpMinF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(math.Min(fr[in.A.Reg].Flt(), fr[in.B.Reg].Flt()))

		case bytecode.OpMaxF:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VFloat, math.Float64bits(math.Max(fr[in.A.Reg].Flt(), fr[in.B.Reg].Flt()))

		case bytecode.OpCmpEq:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(interp.EqVal(fr[in.A.Reg], fr[in.B.Reg]))

		case bytecode.OpCmpNe:
			nscalar++
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(!interp.EqVal(fr[in.A.Reg], fr[in.B.Reg]))

		case bytecode.OpCmpU:
			nscalar++
			a, b := fr[in.A.Reg].I, fr[in.B.Reg].I
			c := 0
			switch {
			case a < b:
				c = -1
			case a > b:
				c = 1
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(cmpHolds(c, ir.CmpKind(in.Aux)))

		case bytecode.OpCmpS:
			nscalar++
			a, b := int64(fr[in.A.Reg].I), int64(fr[in.B.Reg].I)
			c := 0
			switch {
			case a < b:
				c = -1
			case a > b:
				c = 1
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(cmpHolds(c, ir.CmpKind(in.Aux)))

		case bytecode.OpCmpF:
			nscalar++
			a, b := fr[in.A.Reg].Flt(), fr[in.B.Reg].Flt()
			c := 0
			switch {
			case a < b:
				c = -1
			case a > b:
				c = 1
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(cmpHolds(c, ir.CmpKind(in.Aux)))

		case bytecode.OpCmpG:
			nscalar++
			c := interp.CmpVal(fr[in.A.Reg], fr[in.B.Reg])
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(cmpHolds(c, ir.CmpKind(in.Aux)))

		case bytecode.OpNot:
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, b01(fr[in.A.Reg].I == 0)

		case bytecode.OpSelect:
			if fr[in.A.Reg].Bool() {
				fr[in.Dst] = fr[in.B.Reg]
			} else {
				fr[in.Dst] = fr[in.C.Reg]
			}

		case bytecode.OpCastF:
			x := fr[in.A.Reg]
			if x.K == interp.VInt {
				d := &fr[in.Dst]
				d.K, d.I = interp.VFloat, math.Float64bits(float64(x.I))
			} else {
				fr[in.Dst] = x
			}

		case bytecode.OpCastI:
			x := &fr[in.A.Reg]
			bits := x.I
			if x.K == interp.VFloat {
				bits = uint64(int64(x.Flt()))
			}
			d := &fr[in.Dst]
			d.K, d.I = interp.VInt, bits&in.Imm

		case bytecode.OpIdent:
			fr[in.Dst] = fr[in.A.Reg]

		case bytecode.OpTuple:
			list := f.ArgLists[in.Aux]
			fields := make([]interp.Val, len(list))
			for i, o := range list {
				var v interp.Val
				if v, err = m.get(f, fr, o); err != nil {
					goto out
				}
				fields[i] = v
			}
			fr[in.Dst] = interp.TupleV(fields)

		case bytecode.OpField:
			tv := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if tv, err = m.walkPath(f, fr, tv, in.A.Path); err != nil {
					goto out
				}
			}
			fields := tv.Tuple()
			if int(in.Aux) >= len(fields) {
				err = interp.Errf(f.Name, "field %d of %d-tuple", in.Aux, len(fields))
				goto out
			}
			fr[in.Dst] = fields[in.Aux]

		case bytecode.OpEmit:
			v := fr[in.A.Reg]
			if in.A.Path >= 0 {
				if v, err = m.walkPath(f, fr, v, in.A.Path); err != nil {
					goto out
				}
			}
			m.Emit(v)

		case bytecode.OpROI:
			st.Steps += steps
			st.Counts[collections.ImplNone][interp.OKScalar] += nscalar
			budget -= steps
			steps, nscalar = 0, 0
			m.MarkROI()

		default:
			err = interp.Errf(f.Name, "unimplemented opcode %v", op)
			goto out
		}
	}
out:
	st.Steps += steps
	st.Counts[collections.ImplNone][interp.OKScalar] += nscalar
	if len(m.iters) > base { // an error left this segment's loops open
		clear(m.iters[base:])
		m.iters = m.iters[:base]
	}
	return rv, returned, err
}
