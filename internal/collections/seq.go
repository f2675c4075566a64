package collections

import "unsafe"

// Seq is a resizable array, the only sequence implementation in the
// selection space (Table I row Seq<T>/Array). Reads and writes are
// O(1); positional insert and remove are O(n).
type Seq[T any] struct {
	elems  []T
	layout *Layout // nil: T's own size and append's growth
}

// NewSeq returns an empty sequence.
func NewSeq[T any]() *Seq[T] { return &Seq[T]{} }

// NewSeqLayout returns an empty sequence whose storage models l: it
// reports l's element size and reallocates as a slice of l's element
// type would.
func NewSeqLayout[T any](l *Layout) *Seq[T] { return &Seq[T]{layout: l} }

// NewSeqWithCap returns an empty sequence with capacity for n elements.
func NewSeqWithCap[T any](n int) *Seq[T] {
	return &Seq[T]{elems: make([]T, 0, n)}
}

// Len returns the number of elements.
func (s *Seq[T]) Len() int { return len(s.elems) }

// Get returns the element at index i.
func (s *Seq[T]) Get(i int) T { return s.elems[i] }

// Set overwrites the element at index i.
func (s *Seq[T]) Set(i int, v T) { s.elems[i] = v }

// Append adds v at the end and returns its index.
func (s *Seq[T]) Append(v T) int {
	if s.layout != nil && len(s.elems) == cap(s.elems) {
		s.regrow()
	}
	s.elems = append(s.elems, v)
	return len(s.elems) - 1
}

// InsertAt inserts v before index i (i may equal Len to append).
func (s *Seq[T]) InsertAt(i int, v T) {
	if s.layout != nil && len(s.elems) == cap(s.elems) {
		s.regrow()
	}
	var zero T
	s.elems = append(s.elems, zero)
	copy(s.elems[i+1:], s.elems[i:])
	s.elems[i] = v
}

// regrow reallocates a full sequence to the capacity its layout's
// element type would grow to, so the append that follows fits.
func (s *Seq[T]) regrow() {
	w := make([]T, len(s.elems), s.layout.nextCap(cap(s.elems)))
	copy(w, s.elems)
	s.elems = w
}

// RemoveAt deletes the element at index i, shifting the tail left.
func (s *Seq[T]) RemoveAt(i int) {
	copy(s.elems[i:], s.elems[i+1:])
	s.elems = s.elems[:len(s.elems)-1]
}

// Clear removes all elements, keeping capacity.
func (s *Seq[T]) Clear() { s.elems = s.elems[:0] }

// Iterate calls f for each element in order until f returns false.
func (s *Seq[T]) Iterate(f func(i int, v T) bool) {
	for i, v := range s.elems {
		if !f(i, v) {
			return
		}
	}
}

// Slice exposes the backing slice (read-only by convention).
func (s *Seq[T]) Slice() []T { return s.elems }

// Bytes models the storage footprint: capacity times element size.
func (s *Seq[T]) Bytes() int64 {
	var zero T
	return int64(cap(s.elems)) * s.layout.sizeOr(unsafe.Sizeof(zero))
}

// Kind reports the implementation.
func (s *Seq[T]) Kind() Impl { return ImplArray }
