package collections

import (
	"reflect"
	"sync"
	"testing"
)

// capChain records every capacity a sequence passes through while n
// elements are appended one at a time.
func capChain(n int, appendOne func(), capacity func() int) []int {
	var caps []int
	for i := 0; i < n; i++ {
		appendOne()
		if c := capacity(); len(caps) == 0 || caps[len(caps)-1] != c {
			caps = append(caps, c)
		}
	}
	return caps
}

// Word sequences sharing one Layout grow, from several goroutines at
// once, along exactly the capacity chain of a []boxedVal grown by
// append, and report its bytes.
func TestLayoutGrowthMatchesBoxed(t *testing.T) {
	const n = 20000
	var boxed []boxedVal
	want := capChain(n, func() { boxed = append(boxed, boxedVal{}) }, func() int { return cap(boxed) })

	l := LayoutOf[boxedVal]()
	got := make([][]int, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := NewSeqLayout[uint64](l)
			got[g] = capChain(n, func() { s.Append(1) }, func() int { return cap(s.elems) })
			if s.Bytes() != int64(cap(boxed))*l.ElemBytes() {
				t.Errorf("goroutine %d: Bytes %d, boxed %d", g, s.Bytes(), int64(cap(boxed))*l.ElemBytes())
			}
		}(g)
	}
	wg.Wait()
	for g, chain := range got {
		if !reflect.DeepEqual(chain, want) {
			t.Fatalf("goroutine %d: capacity chain %v, boxed %v", g, chain, want)
		}
	}
}
