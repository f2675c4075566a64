package interp

import (
	"memoir/internal/collections"
	"memoir/internal/ir"
)

// Enum is the runtime enumeration of §III-B: Enc maps values to dense
// identifiers, Dec is the inverse sequence. Identifiers are assigned
// contiguously from 0 in first-add order; values are never removed, so
// Dec is injective and append-only — the properties RTE's rewrite
// rules rely on.
//
// An enumeration over an integer domain keeps its keys as raw words
// (encW, decW); any other domain keeps boxed Vals (enc, dec). Both
// pairs hash, probe, grow and model bytes identically.
type Enum struct {
	words bool
	enc   valU32Map
	dec   *collections.Seq[Val]
	encW  wordU32Map
	decW  *collections.Seq[uint64]
}

// AbsentID is the sentinel identifier returned by Enc for values not
// in the enumeration; it is never issued by Add, so dense membership
// tests against it are always false. Exported so the bytecode VM
// returns the identical sentinel.
const AbsentID uint32 = 0xffffffff

// NewEnum returns an empty enumeration; words selects raw-word key
// storage, which only an integer key domain may use.
func NewEnum(words bool) *Enum {
	if words {
		return &Enum{words: true, decW: collections.NewSeqLayout[uint64](valLayout)}
	}
	return &Enum{dec: collections.NewSeq[Val]()}
}

// EnumWords reports whether the enumeration defined by in (an
// OpNewEnum or OpEnumGlobal) stores its keys as words: whether its
// key domain is an integer scalar. Both engines decide through it.
func EnumWords(in *ir.Instr) bool {
	if len(in.Results) == 0 {
		return false
	}
	ct := ir.AsColl(in.Results[0].Type)
	return ct != nil && isWord(ct.Key)
}

// Len returns the number of enumerated values (the N of E = [0,N)).
func (e *Enum) Len() int {
	if e.words {
		return e.decW.Len()
	}
	return e.dec.Len()
}

// Enc translates a value to its identifier. The bool mirrors the
// paper's UB contract: callers that cannot guarantee membership must
// check it.
func (e *Enum) Enc(v Val) (uint32, bool) {
	if e.words {
		return e.encW.Get(v.I)
	}
	return e.enc.Get(v)
}

// Dec translates an identifier back to its value; behaviour is
// undefined (panics) for identifiers never issued.
func (e *Enum) Dec(id uint32) Val {
	if e.words {
		return IntV(e.decW.Get(int(id)))
	}
	return e.dec.Get(int(id))
}

// Add inserts v if absent, returning its identifier and whether it was
// newly added.
func (e *Enum) Add(v Val) (uint32, bool) {
	if e.words {
		if id, ok := e.encW.Get(v.I); ok {
			return id, false
		}
		id := uint32(e.decW.Len())
		e.encW.Put(v.I, id)
		e.decW.Append(v.I)
		return id, true
	}
	if id, ok := e.enc.Get(v); ok {
		return id, false
	}
	id := uint32(e.dec.Len())
	e.enc.Put(v, id)
	e.dec.Append(v)
	return id, true
}

// Bytes models the footprint of both halves of the enumeration.
func (e *Enum) Bytes() int64 {
	if e.words {
		return e.encW.Bytes() + e.decW.Bytes()
	}
	return e.enc.Bytes() + e.dec.Bytes()
}

// CorruptSlot deliberately breaks the enc/dec bijection — it
// overwrites dec slot 0 with the most recently added value — and
// reports whether it did (a single-entry enumeration has no distinct
// slot to corrupt). It exists only for fault injection
// (internal/faults EnumCorrupt): the silent-miscompile failure mode,
// wrong decoded values without any crash, made reachable on demand.
func (e *Enum) CorruptSlot() bool {
	n := e.Len()
	if n < 2 {
		return false
	}
	if e.words {
		e.decW.Set(0, e.decW.Get(n-1))
	} else {
		e.dec.Set(0, e.dec.Get(n-1))
	}
	return true
}
