package main

import (
	"bytes"
	"testing"

	"memoir/internal/bench"
	"memoir/internal/ir"
)

// stream renders everything a workload sends for a seed: the suite's
// program texts in the order of its first passes, or a serve plan's
// primed programs, every drawn request body and the first requests of
// the stream's continuation.
func stream(workload string, seed int64) []byte {
	var b bytes.Buffer
	if workload == "suite" {
		specs := bench.All()
		for pass := 0; pass < 3; pass++ {
			for _, i := range suiteOrder(seed, pass, len(specs)) {
				b.WriteString(ir.Print(specs[i].Build("")))
			}
		}
		return b.Bytes()
	}
	p := planFor(workload, seed, 40, []int{30, 10, 10}, true)
	for _, q := range p.prime {
		b.Write(q.Body())
		b.WriteByte('\n')
	}
	for _, q := range p.requests() {
		b.Write(q.Body())
		b.WriteByte('\n')
	}
	for i := 0; i < 20; i++ {
		b.Write(p.more().Body())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range []string{"suite", "serve-hot", "serve-cold", "serve-churn"} {
		a, again, other := stream(w, 7), stream(w, 7), stream(w, 8)
		if !bytes.Equal(a, again) {
			t.Errorf("%s: seed 7 gave two different streams", w)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w)
		}
	}
}

func TestColdRequestsAreNeverRepeated(t *testing.T) {
	p := planFor("serve-cold", 3, 200, []int{200, 100}, true)
	seen := map[string]bool{}
	qs := p.requests()
	for i := 0; i < 200; i++ {
		qs = append(qs, p.more())
	}
	for _, q := range qs {
		if k := q.answerKey(); seen[k] {
			t.Fatalf("serve-cold repeated a program:\n%s", q.Program)
		} else {
			seen[k] = true
		}
	}
}

func TestHotTrafficMixIsFixed(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := planFor("serve-hot", seed, 0, []int{100 * hotWorkingSet}, false)
		interp, uses := 0, map[string]int{}
		for _, q := range p.ref {
			if q.Engine == "" {
				interp++
			}
			uses[q.answerKey()]++
		}
		if want := hotInterpPct * hotWorkingSet; interp != want {
			t.Errorf("seed %d: %d requests omit the engine, want %d", seed, interp, want)
		}
		for prog, n := range uses {
			if n != 100 {
				t.Fatalf("seed %d: a program was sent %d times, want 100:\n%s", seed, n, prog)
			}
		}
	}
}

func TestDrawnBodiesMatchTheirFields(t *testing.T) {
	for _, w := range []string{"serve-hot", "serve-cold", "serve-churn"} {
		p := planFor(w, 5, 20, []int{20, 10}, true)
		qs := append(p.prime, p.requests()...)
		qs = append(qs, p.more(), p.more())
		for _, q := range qs {
			if q.body == nil {
				t.Fatalf("%s: a drawn %s request has no body", w, q.Family)
			}
			if !bytes.Equal(q.body, q.marshal()) {
				t.Fatalf("%s: a %s request's body does not match its fields", w, q.Family)
			}
		}
	}
}

func TestKernelsCompileAndRun(t *testing.T) {
	m := newMinter(rngFor(1, "test"), coldSizes)
	for _, f := range families {
		q := m.mint(f)
		ans, _, err := reference(q.Program, q.Args)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if ans.Result == "" {
			t.Errorf("%s: empty result", f)
		}
		if _, _, err := compile(q.Program, compileOpts{ade: true, server: true, parent: -1}); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}
