package interp

import (
	"memoir/internal/collections"
	"memoir/internal/ir"
)

// Coll is a runtime collection handle. SSA redefinitions of a
// collection all alias one handle; the interpreter mutates it in
// place, which is sound because MEMOIR's collection SSA gives each
// state a single forward use chain.
//
// The frequent implementations are exported concrete types (RSetHash,
// RSetBits, RSetSparse, RMapHash, RMapBit, RMapBitVal, RSeqArr,
// RSeqVal) so the bytecode VM can devirtualize its hot collection
// opcodes with a type switch; rarer implementations stay behind the
// generic rsetG/rmapG wrappers. Sequences and dense maps come in two
// representations chosen by the IR element type: raw uint64 words for
// integer elements, boxed Vals otherwise. Both model the same bytes.
type Coll interface {
	CollKind() ir.CollKind
	Impl() collections.Impl
	ElemType() ir.Type
	Len() int
	Bytes() int64
	Clear()
}

// RSet is a runtime set.
type RSet interface {
	Coll
	Has(Val) bool
	Insert(Val) bool
	Remove(Val) bool
	Iterate(func(Val) bool)
}

// RMap is a runtime map.
type RMap interface {
	Coll
	Get(Val) (Val, bool)
	Put(Val, Val)
	HasKey(Val) bool
	Remove(Val) bool
	Iterate(func(k, v Val) bool)
}

// RSeq is a runtime sequence.
type RSeq interface {
	Coll
	Get(int) Val
	Set(int, Val)
	Append(Val)
	InsertAt(int, Val)
	RemoveAt(int)
	Iterate(func(i int, v Val) bool)
}

// --- HashSet-backed set, Val-specialized ---

// RSetHash is the Set{HashSet} runtime set over the Val-specialized
// open-addressing table.
type RSetHash struct {
	ValSet
	t *ir.CollType
}

func (r *RSetHash) CollKind() ir.CollKind  { return ir.KSet }
func (r *RSetHash) Impl() collections.Impl { return collections.ImplHashSet }
func (r *RSetHash) ElemType() ir.Type      { return r.t.Key }

// --- generic (sparse-keyed) set: Swiss or Flat ---

type rsetG struct {
	s collections.Set[Val]
	t *ir.CollType
}

func (r *rsetG) CollKind() ir.CollKind    { return ir.KSet }
func (r *rsetG) Impl() collections.Impl   { return r.s.Kind() }
func (r *rsetG) ElemType() ir.Type        { return r.t.Key }
func (r *rsetG) Len() int                 { return r.s.Len() }
func (r *rsetG) Bytes() int64             { return r.s.Bytes() }
func (r *rsetG) Clear()                   { r.s.Clear() }
func (r *rsetG) Has(v Val) bool           { return r.s.Has(v) }
func (r *rsetG) Insert(v Val) bool        { return r.s.Insert(v) }
func (r *rsetG) Remove(v Val) bool        { return r.s.Remove(v) }
func (r *rsetG) Iterate(f func(Val) bool) { r.s.Iterate(f) }

// --- dense (idx-keyed) sets: BitSet and SparseBitSet ---

// RSetBits is the Set{BitSet} runtime set.
type RSetBits struct {
	S *collections.BitSet
	t *ir.CollType
}

func (r *RSetBits) CollKind() ir.CollKind  { return ir.KSet }
func (r *RSetBits) Impl() collections.Impl { return collections.ImplBitSet }
func (r *RSetBits) ElemType() ir.Type      { return r.t.Key }
func (r *RSetBits) Len() int               { return r.S.Len() }
func (r *RSetBits) Bytes() int64           { return r.S.Bytes() }
func (r *RSetBits) Clear()                 { r.S.Clear() }
func (r *RSetBits) Has(v Val) bool         { return r.S.Has(uint32(v.I)) }
func (r *RSetBits) Insert(v Val) bool      { return r.S.Insert(uint32(v.I)) }
func (r *RSetBits) Remove(v Val) bool      { return r.S.Remove(uint32(v.I)) }
func (r *RSetBits) Iterate(f func(Val) bool) {
	r.S.Iterate(func(k uint32) bool { return f(IntV(uint64(k))) })
}

// RSetSparse is the Set{SparseBitSet} runtime set.
type RSetSparse struct {
	S *collections.SparseBitSet
	t *ir.CollType
}

func (r *RSetSparse) CollKind() ir.CollKind  { return ir.KSet }
func (r *RSetSparse) Impl() collections.Impl { return collections.ImplSparseBitSet }
func (r *RSetSparse) ElemType() ir.Type      { return r.t.Key }
func (r *RSetSparse) Len() int               { return r.S.Len() }
func (r *RSetSparse) Bytes() int64           { return r.S.Bytes() }
func (r *RSetSparse) Clear()                 { r.S.Clear() }
func (r *RSetSparse) Has(v Val) bool         { return r.S.Has(uint32(v.I)) }
func (r *RSetSparse) Insert(v Val) bool      { return r.S.Insert(uint32(v.I)) }
func (r *RSetSparse) Remove(v Val) bool      { return r.S.Remove(uint32(v.I)) }
func (r *RSetSparse) Iterate(f func(Val) bool) {
	r.S.Iterate(func(k uint32) bool { return f(IntV(uint64(k))) })
}

// --- HashMap-backed map, Val-specialized ---

// RMapHash is the Map{HashMap} runtime map over the Val-specialized
// open-addressing table.
type RMapHash struct {
	ValMap
	t *ir.CollType
}

func (r *RMapHash) CollKind() ir.CollKind  { return ir.KMap }
func (r *RMapHash) Impl() collections.Impl { return collections.ImplHashMap }
func (r *RMapHash) ElemType() ir.Type      { return r.t.Elem }
func (r *RMapHash) HasKey(k Val) bool      { return r.Has(k) }

// --- generic (sparse-keyed) map: Swiss ---

type rmapG struct {
	m collections.Map[Val, Val]
	t *ir.CollType
}

func (r *rmapG) CollKind() ir.CollKind  { return ir.KMap }
func (r *rmapG) Impl() collections.Impl { return r.m.Kind() }
func (r *rmapG) ElemType() ir.Type      { return r.t.Elem }
func (r *rmapG) Len() int               { return r.m.Len() }
func (r *rmapG) Bytes() int64 {
	total := r.m.Bytes()
	// Nested collections owned by map values contribute their own
	// footprints via the live registry; nothing extra here.
	return total
}
func (r *rmapG) Clear()                        { r.m.Clear() }
func (r *rmapG) Get(k Val) (Val, bool)         { return r.m.Get(k) }
func (r *rmapG) Put(k, v Val)                  { r.m.Put(k, v) }
func (r *rmapG) HasKey(k Val) bool             { return r.m.Has(k) }
func (r *rmapG) Remove(k Val) bool             { return r.m.Remove(k) }
func (r *rmapG) Iterate(f func(k, v Val) bool) { r.m.Iterate(f) }

// --- dense (idx-keyed) maps: BitMap ---

// RMapBit is the Map{BitMap} runtime map over integer values, stored
// as raw words.
type RMapBit struct {
	M *collections.BitMap[uint64]
	t *ir.CollType
}

func (r *RMapBit) CollKind() ir.CollKind  { return ir.KMap }
func (r *RMapBit) Impl() collections.Impl { return collections.ImplBitMap }
func (r *RMapBit) ElemType() ir.Type      { return r.t.Elem }
func (r *RMapBit) Len() int               { return r.M.Len() }
func (r *RMapBit) Bytes() int64           { return r.M.Bytes() }
func (r *RMapBit) Clear()                 { r.M.Clear() }
func (r *RMapBit) Get(k Val) (Val, bool) {
	w, ok := r.M.Get(uint32(k.I))
	return IntV(w), ok
}
func (r *RMapBit) Put(k, v Val)      { r.M.Put(uint32(k.I), v.I) }
func (r *RMapBit) HasKey(k Val) bool { return r.M.Has(uint32(k.I)) }
func (r *RMapBit) Remove(k Val) bool { return r.M.Remove(uint32(k.I)) }
func (r *RMapBit) Iterate(f func(k, v Val) bool) {
	r.M.Iterate(func(k uint32, w uint64) bool { return f(IntV(uint64(k)), IntV(w)) })
}

// RMapBitVal is the Map{BitMap} runtime map over boxed values: floats,
// strings, tuples and nested collections.
type RMapBitVal struct {
	M *collections.BitMap[Val]
	t *ir.CollType
}

func (r *RMapBitVal) CollKind() ir.CollKind  { return ir.KMap }
func (r *RMapBitVal) Impl() collections.Impl { return collections.ImplBitMap }
func (r *RMapBitVal) ElemType() ir.Type      { return r.t.Elem }
func (r *RMapBitVal) Len() int               { return r.M.Len() }
func (r *RMapBitVal) Bytes() int64           { return r.M.Bytes() }
func (r *RMapBitVal) Clear()                 { r.M.Clear() }
func (r *RMapBitVal) Get(k Val) (Val, bool)  { return r.M.Get(uint32(k.I)) }
func (r *RMapBitVal) Put(k, v Val)           { r.M.Put(uint32(k.I), v) }
func (r *RMapBitVal) HasKey(k Val) bool      { return r.M.Has(uint32(k.I)) }
func (r *RMapBitVal) Remove(k Val) bool      { return r.M.Remove(uint32(k.I)) }
func (r *RMapBitVal) Iterate(f func(k, v Val) bool) {
	r.M.Iterate(func(k uint32, v Val) bool { return f(IntV(uint64(k)), v) })
}

// --- sequences ---

// RSeqArr is the array-backed runtime sequence over integer elements,
// stored as raw words.
type RSeqArr struct {
	S *collections.Seq[uint64]
	t *ir.CollType
}

func (r *RSeqArr) CollKind() ir.CollKind  { return ir.KSeq }
func (r *RSeqArr) Impl() collections.Impl { return collections.ImplArray }
func (r *RSeqArr) ElemType() ir.Type      { return r.t.Elem }
func (r *RSeqArr) Len() int               { return r.S.Len() }
func (r *RSeqArr) Bytes() int64           { return r.S.Bytes() }
func (r *RSeqArr) Clear()                 { r.S.Clear() }
func (r *RSeqArr) Get(i int) Val          { return IntV(r.S.Get(i)) }
func (r *RSeqArr) Set(i int, v Val)       { r.S.Set(i, v.I) }
func (r *RSeqArr) Append(v Val)           { r.S.Append(v.I) }
func (r *RSeqArr) InsertAt(i int, v Val)  { r.S.InsertAt(i, v.I) }
func (r *RSeqArr) RemoveAt(i int)         { r.S.RemoveAt(i) }
func (r *RSeqArr) Iterate(f func(int, Val) bool) {
	r.S.Iterate(func(i int, w uint64) bool { return f(i, IntV(w)) })
}

// RSeqVal is the array-backed runtime sequence over boxed elements.
type RSeqVal struct {
	S *collections.Seq[Val]
	t *ir.CollType
}

func (r *RSeqVal) CollKind() ir.CollKind         { return ir.KSeq }
func (r *RSeqVal) Impl() collections.Impl        { return collections.ImplArray }
func (r *RSeqVal) ElemType() ir.Type             { return r.t.Elem }
func (r *RSeqVal) Len() int                      { return r.S.Len() }
func (r *RSeqVal) Bytes() int64                  { return r.S.Bytes() }
func (r *RSeqVal) Clear()                        { r.S.Clear() }
func (r *RSeqVal) Get(i int) Val                 { return r.S.Get(i) }
func (r *RSeqVal) Set(i int, v Val)              { r.S.Set(i, v) }
func (r *RSeqVal) Append(v Val)                  { r.S.Append(v) }
func (r *RSeqVal) InsertAt(i int, v Val)         { r.S.InsertAt(i, v) }
func (r *RSeqVal) RemoveAt(i int)                { r.S.RemoveAt(i) }
func (r *RSeqVal) Iterate(f func(int, Val) bool) { r.S.Iterate(f) }

// valLayout makes word storage model the boxed Val storage it
// replaces: identical Bytes() and identical reallocation points.
var valLayout = collections.LayoutOf[Val]()

// isWord reports whether values of type t are stored as raw uint64
// words: every integer-like scalar (everything but f32, f64 and str).
// Collections of any other element type keep boxed Val storage.
func isWord(t ir.Type) bool {
	st, ok := t.(*ir.ScalarType)
	if !ok {
		return false
	}
	switch st.Kind {
	case ir.F32, ir.F64, ir.Str:
		return false
	}
	return true
}

// newCollFor materializes an empty collection of type ct without
// registering it anywhere (Runtime.NewColl registers). Unselected
// types fall back to the given defaults.
func newCollFor(ct *ir.CollType, defSet, defMap collections.Impl) Coll {
	var c Coll
	switch ct.Kind {
	case ir.KSeq:
		if isWord(ct.Elem) {
			c = &RSeqArr{S: collections.NewSeqLayout[uint64](valLayout), t: ct}
		} else {
			c = &RSeqVal{S: collections.NewSeq[Val](), t: ct}
		}
	case ir.KSet:
		sel := ct.Sel
		if sel == collections.ImplNone {
			sel = defSet
		}
		switch sel {
		case collections.ImplBitSet:
			c = &RSetBits{S: collections.NewBitSet(), t: ct}
		case collections.ImplSparseBitSet:
			c = &RSetSparse{S: collections.NewSparseBitSet(), t: ct}
		case collections.ImplFlatSet:
			c = &rsetG{s: collections.NewFlatSet(CmpVal), t: ct}
		case collections.ImplSwissSet:
			c = &rsetG{s: collections.NewSwissSet(HashVal, EqVal), t: ct}
		default:
			c = &RSetHash{t: ct}
		}
	case ir.KMap:
		sel := ct.Sel
		if sel == collections.ImplNone {
			sel = defMap
		}
		switch sel {
		case collections.ImplBitMap:
			if isWord(ct.Elem) {
				c = &RMapBit{M: collections.NewBitMapLayout[uint64](valLayout), t: ct}
			} else {
				c = &RMapBitVal{M: collections.NewBitMap[Val](), t: ct}
			}
		case collections.ImplSwissMap:
			c = &rmapG{m: collections.NewSwissMap[Val, Val](HashVal, EqVal), t: ct}
		default:
			c = &RMapHash{t: ct}
		}
	default:
		panic("NewColl: unsupported kind " + ct.Kind.String())
	}
	return c
}
