package main

import (
	"fmt"
	"runtime"
	"time"

	"memoir/internal/bench"
	"memoir/internal/bytecode"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/parser"
	"memoir/internal/vm"
)

// suiteProg is one suite program after set-up.
type suiteProg struct {
	spec   *bench.Spec
	text   string         // printed .mir of the untransformed program
	ref    answer         // untransformed, tree interpreter
	base   *bytecode.Prog // the MEMOIR (no-ADE) build, compiled once
	peak   int64          // modeled peak bytes of the ADE build
	speed  float64        // cost-model speedup, ADE over MEMOIR
	digest string         // exact counts, for the determinism check
}

// timingOpts are the engine options of every timed run: the live-set
// scan stays out of the loop, as in the experiments package.
func timingOpts() interp.Options {
	o := interp.DefaultOptions()
	o.MemSampleEvery = 1 << 30
	return o
}

// setupSuite prints every program, computes its reference answer on
// the tree interpreter, and checks the ADE build: same answer, and the
// same ROI op counts on the VM as on the interpreter.
func setupSuite() ([]*suiteProg, error) {
	var out []*suiteProg
	for _, s := range bench.All() {
		p := &suiteProg{spec: s, text: ir.Print(s.Build(""))}
		base, err := parser.Parse(p.text)
		if err != nil {
			return nil, fmt.Errorf("%s: printed program does not parse: %w", s.Abbr, err)
		}
		mem := interp.DefaultOptions()
		mem.MemSampleEvery = 256
		baseRes, err := runOn(s, base, mem, bench.EngineInterp)
		if err != nil {
			return nil, err
		}
		p.ref = answer{fmt.Sprint(baseRes.ret), baseRes.st.EmitCount, baseRes.st.EmitSum}
		if p.base, err = bytecode.Compile(base); err != nil {
			return nil, fmt.Errorf("%s: %w", s.Abbr, err)
		}
		if err := bytecode.Verify(p.base); err != nil {
			return nil, fmt.Errorf("%s: %w", s.Abbr, err)
		}
		adeProg, _, err := compile(p.text, compileOpts{ade: true, parent: -1})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Abbr, err)
		}
		onInterp, err := runOn(s, adeProg, mem, bench.EngineInterp)
		if err != nil {
			return nil, err
		}
		onVM, err := runOn(s, adeProg, mem, bench.EngineVM)
		if err != nil {
			return nil, err
		}
		for _, r := range []*execResult{onInterp, onVM} {
			if got := r.answer(); got != p.ref {
				return nil, fmt.Errorf("%s: ADE build answers %v, reference %v", s.Abbr, got, p.ref)
			}
		}
		if a, b := countsDigest(onInterp.roi), countsDigest(onVM.roi); a != b {
			return nil, fmt.Errorf("%s: ROI op counts differ between engines:\n interp %s\n vm     %s", s.Abbr, a, b)
		}
		p.peak = onInterp.st.PeakBytes
		p.speed = baseRes.st.ModeledNanos(interp.ArchIntelX64) / onInterp.st.ModeledNanos(interp.ArchIntelX64)
		p.digest = countsDigest(onVM.st)
		out = append(out, p)
	}
	return out, nil
}

// countsDigest renders a run's exact deterministic counts.
func countsDigest(st *interp.Stats) string {
	return fmt.Sprintf("steps=%d sparse=%d dense=%d emits=%d sum=%#x counts=%v",
		st.Steps, st.Sparse, st.Dense, st.EmitCount, st.EmitSum, st.Counts)
}

type execResult struct {
	ret     interp.Val
	st, roi *interp.Stats
}

func (r *execResult) answer() answer {
	return answer{r.ret.String(), r.st.EmitCount, r.st.EmitSum}
}

// runOn runs a program on a fresh engine through bench.NewMachine
// (set-up only: the timed loop reuses compiled bytecode).
func runOn(s *bench.Spec, prog *ir.Program, opts interp.Options, eng bench.Engine) (*execResult, error) {
	m, err := bench.NewMachine(ir.CloneProgram(prog), opts, eng)
	if err != nil {
		return nil, fmt.Errorf("%s/%v: %w", s.Abbr, eng, err)
	}
	ret, err := m.Run("main", s.Input(m, bench.ScaleSmall)...)
	if err != nil {
		return nil, fmt.Errorf("%s/%v: %w", s.Abbr, eng, err)
	}
	m.FinalizeMem()
	return &execResult{ret: ret, st: m.Stats(), roi: m.ROIStats()}, nil
}

// samples are per-program measurements, keyed by abbreviation.
type samples map[string][]float64

func (s samples) add(o samples) {
	for k, xs := range o {
		s[k] = append(s[k], xs...)
	}
}

// suitePass is what one pass of the suite loop measured.
type suitePass struct {
	compile, whole, roi, base, item samples // ms
	allocs, bytes                   samples // Go heap allocations per run
	items                           int
	dur                             time.Duration
	steal                           float64 // % of CPU time stolen during the pass
}

func newSuitePass() *suitePass {
	return &suitePass{compile: samples{}, whole: samples{}, roi: samples{}, base: samples{},
		item: samples{}, allocs: samples{}, bytes: samples{}}
}

func (p *suitePass) add(o *suitePass) {
	for _, pair := range [][2]samples{{p.compile, o.compile}, {p.whole, o.whole}, {p.roi, o.roi},
		{p.base, o.base}, {p.item, o.item}, {p.allocs, o.allocs}, {p.bytes, o.bytes}} {
		pair[0].add(pair[1])
	}
	p.items += o.items
	p.dur += o.dur
}

// suiteRun is what one measured stretch of the suite loop collected.
type suiteRun struct {
	runs     int
	steps    uint64 // ADE-build VM steps executed
	passes   []*suitePass
	stealOK  bool
	rt       rtDelta
	failed   int
	errs     []string
	complete int // passes that ran every program
}

// runSuite is the suite's closed loop: one goroutine runs passes over
// the programs in seed-shuffled order until d has passed. Each item
// compiles the program from its text, runs the ADE build and the
// MEMOIR build on the VM, and checks both against the reference.
func runSuite(progs []*suiteProg, seed int64, d time.Duration, tr *tracer, counts map[string]float64) *suiteRun {
	r := &suiteRun{stealOK: true}
	deadline := time.Now().Add(d)
	var req int64
	for pass := 0; time.Now().Before(deadline); pass++ {
		// Settle the heap once per pass, outside any item, so one
		// pass's garbage does not tax the next.
		runtime.GC()
		ps := newSuitePass()
		r.passes = append(r.passes, ps)
		steal0, ok := cpuSteal()
		start := time.Now()
		for _, i := range suiteOrder(seed, pass, len(progs)) {
			if !time.Now().Before(deadline) {
				break
			}
			p := progs[i]
			req++
			itemStart := time.Now()
			root := tr.begin("item", -1, req)
			var c map[string]float64
			if pass == 0 {
				c = counts // per-layer counts cover exactly one pass
			}
			t0 := time.Now()
			_, bc, err := compile(p.text, compileOpts{ade: true, tr: tr, parent: root, req: req, counts: c, weight: 1})
			compileD := time.Since(t0)
			if err != nil {
				r.runs++ // the ADE run this item could not make
				r.fail(p, err)
				tr.end(root)
				continue
			}
			ade := r.timedRun(ps, p, bc, tr, root, req, "vm.run")
			if ade != nil {
				if countsDigest(ade.st) != p.digest {
					r.fail(p, fmt.Errorf("ADE build counts changed from set-up: %s", countsDigest(ade.st)))
				} else if c != nil {
					addCollCounts(c, ade.st, 1)
				}
				r.steps += ade.st.Steps
			}
			base := r.timedRun(ps, p, p.base, tr, root, req, "vm.run_base")
			tr.end(root)
			if ade == nil || base == nil {
				continue
			}
			ps.items++
			a := p.spec.Abbr
			ps.compile[a] = append(ps.compile[a], ms(compileD))
			ps.whole[a] = append(ps.whole[a], ms(ade.wall))
			ps.roi[a] = append(ps.roi[a], ms(ade.roiWall))
			ps.base[a] = append(ps.base[a], ms(base.wall))
			ps.item[a] = append(ps.item[a], ms(time.Since(itemStart)))
		}
		ps.dur = time.Since(start)
		steal1, ok1 := cpuSteal()
		ps.steal = steal1.since(steal0)
		r.stealOK = r.stealOK && ok && ok1
		if ps.items == len(progs) {
			r.complete++
		}
	}
	return r
}

// quiet merges the passes the end-to-end figures come from: the
// quieter half of the complete passes by stolen CPU time (every pass
// when there are none complete or no steal accounting). It returns the
// merge and the indices of the passes used.
func (r *suiteRun) quiet(nprogs int) (*suitePass, []int) {
	var idx []int
	var steal []float64
	for i, p := range r.passes {
		if p.items == nprogs || r.complete == 0 {
			idx = append(idx, i)
			steal = append(steal, p.steal)
		}
	}
	out := newSuitePass()
	var used []int
	for _, k := range quietHalf(steal, r.stealOK) {
		out.add(r.passes[idx[k]])
		used = append(used, idx[k])
	}
	return out, used
}

type timedResult struct {
	st            *interp.Stats
	wall, roiWall time.Duration
}

// timedRun executes one build on a fresh VM over freshly built inputs,
// timing only Machine.Run, and checks its answer.
func (r *suiteRun) timedRun(ps *suitePass, p *suiteProg, bc *bytecode.Prog, tr *tracer, parent int, req int64, span string) *timedResult {
	m := vm.New(bc, timingOpts())
	args := p.spec.Input(m, bench.ScaleSmall)
	before := readRT()
	sp := tr.begin(span, parent, req)
	t0 := time.Now()
	ret, err := m.Run("main", args...)
	end := time.Now()
	tr.end(sp)
	after := readRT()
	r.rt.sampleHeap()
	r.rt.add(before, after)
	r.runs++
	a := p.spec.Abbr
	ps.allocs[a] = append(ps.allocs[a], float64(after.mallocs-before.mallocs))
	ps.bytes[a] = append(ps.bytes[a], float64(after.bytes-before.bytes))
	if err != nil {
		r.fail(p, err)
		return nil
	}
	res := &timedResult{st: m.Stats, wall: end.Sub(t0), roiWall: end.Sub(t0)}
	if m.ROISnapshot != nil {
		res.roiWall = end.Sub(m.ROIStart)
	}
	if got := (answer{ret.String(), m.Stats.EmitCount, m.Stats.EmitSum}); got != p.ref {
		r.fail(p, fmt.Errorf("%s answers %v, reference %v", span, got, p.ref))
		return nil
	}
	return res
}

func (r *suiteRun) fail(p *suiteProg, err error) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, p.spec.Abbr+": "+err.Error())
	}
}

// geoOfMedians is the geomean over programs of each program's median.
func geoOfMedians(by map[string][]float64) float64 {
	var meds []float64
	for _, xs := range by {
		meds = append(meds, median(xs))
	}
	return geomean(meds)
}

// itemTail is the suite's latency summary. Items of different programs
// differ by 40x, so pooling them would make the tail a question of
// which program sits at the cut. Instead p50 is the geomean of the
// per-program median item latency, and the tail scales it by the tail
// quantile of every item's latency relative to its program's median.
func itemTail(by map[string][]float64) (p50, tail, q float64) {
	var ratios []float64
	for _, xs := range by {
		m := median(xs)
		for _, x := range xs {
			ratios = append(ratios, x/m)
		}
	}
	q = tailQuantile(len(ratios))
	p50 = geoOfMedians(by)
	return p50, p50 * quantile(ratios, q), q
}

// suiteWorkload is the "suite" workload.
func suiteWorkload(seed int64, d time.Duration, traced bool) (*result, error) {
	var progs []*suiteProg
	setup, err := repeatSetup(func() (string, error) {
		ps, err := setupSuite()
		if err != nil {
			return "", err
		}
		progs = ps
		var digest string
		for _, p := range ps {
			digest += p.spec.Abbr + " " + p.digest + "\n"
		}
		return digest, nil
	})
	if err != nil {
		return nil, err
	}
	res := newResult(setup)
	var peaks, speeds []float64
	for _, p := range progs {
		peaks = append(peaks, float64(p.peak))
		speeds = append(speeds, p.speed)
	}
	measure := d
	if traced {
		measure = d / 2
	}
	run := runSuite(progs, seed, measure, nil, nil)
	res.attempted, res.failed, res.errs = run.runs, run.failed, run.errs
	q, used := run.quiet(len(progs))
	p50, tail, tq := itemTail(q.item)
	e := res.e2e
	e["run_ms"] = geoOfMedians(q.whole)
	e["req_per_s"] = float64(q.items) / q.dur.Seconds()
	e["p50_ms"] = p50
	e["allocs_per_op"] = geoOfMedians(q.allocs)
	e["bytes_per_op"] = geoOfMedians(q.bytes)
	e["model_peak_bytes"] = geomean(peaks)
	x := res.extra
	x["roi_ms"] = geoOfMedians(q.roi)
	x["base_run_ms"] = geoOfMedians(q.base)
	x["compile_ms"] = geoOfMedians(q.compile)
	x["model_speedup"] = geomean(speeds)
	x["p99_ms"] = tail
	steal := make([]float64, len(run.passes))
	for i, p := range run.passes {
		steal[i] = p.steal
	}
	res.notef("suite: %d passes (%d complete) in %v; cpu steal per pass (%%): %s", len(run.passes), run.complete, measure, fmtList(steal, "%.1f"))
	res.notef("end-to-end figures from passes %v: %d items; tail is p%.1f of %d item-latency ratios", used, q.items, 100*tq, q.items)
	if !traced {
		return res, nil
	}

	// The traced half: the same loop with spans on, over the same
	// seed, so the two halves differ only by tracing.
	tr := newTracer()
	l := res.layer
	trun := runSuite(progs, seed, d-measure, tr, l)
	res.attempted += trun.runs
	res.failed += trun.failed
	res.errs = append(res.errs, trun.errs...)
	res.tracer = tr
	tq2, _ := trun.quiet(len(progs))
	res.overheadPct = 100 * (geoOfMedians(tq2.whole)/e["run_ms"] - 1)
	self := tr.totals().self
	var items int
	for _, p := range trun.passes {
		items += p.items
	}
	perItem := func(name string) float64 { return us(self[name]) / float64(items) }
	l["parse_us"] = perItem("parse")
	l["ir.verify_us"] = perItem("ir.verify")
	l["ir.hash_us"] = perItem("ir.hash")
	adeTotal := self["ade"]
	for _, ph := range adePhases {
		l["ade."+ph+"_us"] = perItem("ade." + ph)
		adeTotal += self["ade."+ph]
	}
	l["ade_us"] = us(adeTotal) / float64(items)
	l["ade.other_us"] = perItem("ade")
	l["bc.compile_us"] = perItem("bc.compile")
	l["bc.verify_us"] = perItem("bc.verify")
	l["vm.run_us"] = perItem("vm.run")
	if trun.steps > 0 {
		l["vm.ns_per_step"] = float64(self["vm.run"]) / float64(trun.steps)
	}
	trun.rt.rtMetrics(l)
	return res, nil
}
