package collections

import (
	"sync"
	"unsafe"
)

// Layout is the boxed element type a container of raw words stands
// in for. A Seq or BitMap built with the Layout of a wider element
// type M reports its footprint as capacity × sizeof(M), and a Seq
// reallocates at exactly the lengths, and to exactly the capacities,
// at which append reallocates a []M. The modeled memory and the
// reallocation points (which an iteration's snapshot of the backing
// array observes) are then those of the boxed container, while the
// words themselves hold no pointers for the GC to scan or barrier.
type Layout struct {
	elemBytes int64
	grow      func(c int) int // cap(append(a full []M of capacity c, zero))

	// Growth is always by one element from a full slice, so from any
	// starting capacity the capacities form one fixed chain; next
	// memoizes it process-wide.
	mu   sync.Mutex
	next map[int]int
}

// LayoutOf returns the Layout of element type M. Create it once per
// type and share it: its growth memo is safe for concurrent use.
func LayoutOf[M any]() *Layout {
	var zero M
	return &Layout{
		elemBytes: int64(unsafe.Sizeof(zero)),
		grow:      func(c int) int { return cap(append(make([]M, c), zero)) },
		next:      map[int]int{},
	}
}

// ElemBytes reports sizeof(M).
func (l *Layout) ElemBytes() int64 { return l.elemBytes }

// sizeOr reports the modeled element size, or native for a nil Layout
// (a container that models only itself).
func (l *Layout) sizeOr(native uintptr) int64 {
	if l == nil {
		return int64(native)
	}
	return l.elemBytes
}

// nextCap returns the capacity append gives a full []M of capacity c.
func (l *Layout) nextCap(c int) int {
	l.mu.Lock()
	n, ok := l.next[c]
	if !ok {
		n = l.grow(c)
		l.next[c] = n
	}
	l.mu.Unlock()
	return n
}
