package interp

import (
	"math/rand"
	"testing"

	"memoir/internal/collections"
)

// Word storage must be invisible: a raw-word Seq, BitMap or Enum and
// its boxed Val twin, driven through the same operations, report the
// same Bytes() and Len and hold the same contents at every step. Equal
// Bytes after every operation also pins equal capacities, so the two
// sequences reallocate at identical lengths (DESIGN §6).

const reprMaxLen = 1 << 16

func TestReprSeqTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := collections.NewSeqLayout[uint64](valLayout)
	boxed := collections.NewSeq[Val]()
	clears := 0
	check := func(step int, full bool) {
		t.Helper()
		if words.Bytes() != boxed.Bytes() || words.Len() != boxed.Len() {
			t.Fatalf("step %d: words bytes=%d len=%d, boxed bytes=%d len=%d",
				step, words.Bytes(), words.Len(), boxed.Bytes(), boxed.Len())
		}
		if !full {
			return
		}
		for i := 0; i < boxed.Len(); i++ {
			if words.Get(i) != boxed.Get(i).I {
				t.Fatalf("step %d: element %d: words=%d boxed=%d", step, i, words.Get(i), boxed.Get(i).I)
			}
		}
	}
	for step := 0; boxed.Len() < reprMaxLen; step++ {
		x := rng.Uint64()
		n := boxed.Len()
		// Positional edits stay near the end so the sweep reaches
		// 1<<16 elements without quadratic shifting.
		pos := n - rng.Intn(min(n, 64)+1)
		switch r := rng.Intn(100); {
		case r < 90:
			words.Append(x)
			boxed.Append(IntV(x))
		case r < 95:
			words.InsertAt(pos, x)
			boxed.InsertAt(pos, IntV(x))
		case n > 0:
			words.RemoveAt(min(pos, n-1))
			boxed.RemoveAt(min(pos, n-1))
		}
		// Clear (which keeps capacity) at a few lengths on the way up.
		if clears < 3 && n == 1000<<(2*clears) {
			words.Clear()
			boxed.Clear()
			clears++
		}
		check(step, step%4096 == 0)
	}
	check(-1, true)
}

func TestReprBitMapTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	words := collections.NewBitMapLayout[uint64](valLayout)
	boxed := collections.NewBitMap[Val]()
	check := func(step int, full bool) {
		t.Helper()
		if words.Bytes() != boxed.Bytes() || words.Len() != boxed.Len() {
			t.Fatalf("step %d: words bytes=%d len=%d, boxed bytes=%d len=%d",
				step, words.Bytes(), words.Len(), boxed.Bytes(), boxed.Len())
		}
		if !full {
			return
		}
		var wk, bk []uint32
		var wv, bv []uint64
		words.Iterate(func(k uint32, v uint64) bool { wk, wv = append(wk, k), append(wv, v); return true })
		boxed.Iterate(func(k uint32, v Val) bool { bk, bv = append(bk, k), append(bv, v.I); return true })
		for i := range bk {
			if wk[i] != bk[i] || wv[i] != bv[i] {
				t.Fatalf("step %d: entry %d: words=(%d,%d) boxed=(%d,%d)", step, i, wk[i], wv[i], bk[i], bv[i])
			}
		}
	}
	for step := 0; boxed.Len() < reprMaxLen/2; step++ {
		// Keys grow with the step so the dense array keeps growing.
		k := uint32(rng.Intn(step/2 + 1))
		x := rng.Uint64()
		switch r := rng.Intn(100); {
		case r < 80:
			words.Put(k, x)
			boxed.Put(k, IntV(x))
		default:
			words.Remove(k)
			boxed.Remove(k)
		}
		// Clear (which keeps capacity) twice on the way up.
		if step == 5000 || step == 20000 {
			words.Clear()
			boxed.Clear()
		}
		check(step, step%4096 == 0)
	}
	check(-1, true)
}

func TestReprEnumTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words, boxed := NewEnum(true), NewEnum(false)
	for step := 0; boxed.Len() < reprMaxLen; step++ {
		// Re-adds of earlier values exercise the hit path.
		x := rng.Uint64() % (3 * reprMaxLen)
		wid, wadded := words.Add(IntV(x))
		bid, badded := boxed.Add(IntV(x))
		if wid != bid || wadded != badded {
			t.Fatalf("step %d: add %d: words=(%d,%v) boxed=(%d,%v)", step, x, wid, wadded, bid, badded)
		}
		if words.Bytes() != boxed.Bytes() || words.Len() != boxed.Len() {
			t.Fatalf("step %d: words bytes=%d len=%d, boxed bytes=%d len=%d",
				step, words.Bytes(), words.Len(), boxed.Bytes(), boxed.Len())
		}
	}
	for id := uint32(0); int(id) < boxed.Len(); id++ {
		w, b := words.Dec(id), boxed.Dec(id)
		if w != b {
			t.Fatalf("dec %d: words=%v boxed=%v", id, w, b)
		}
		if wid, ok := words.Enc(w); !ok || wid != id {
			t.Fatalf("enc(dec %d) = %d,%v on words", id, wid, ok)
		}
	}
	if _, ok := words.Enc(IntV(1 << 40)); ok {
		t.Fatal("absent value encoded")
	}
	if words.CorruptSlot() != boxed.CorruptSlot() || words.Dec(0) != boxed.Dec(0) {
		t.Fatalf("corrupt slot: words dec0=%v boxed dec0=%v", words.Dec(0), boxed.Dec(0))
	}
}
