package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"memoir/internal/bytecode"
	"memoir/internal/interp"
	"memoir/internal/ir"
	"memoir/internal/parser"
	"memoir/internal/server"
	"memoir/internal/server/store"
	"memoir/internal/vm"
)

// servedPath is how the server obtained a request's artifact, read
// from the reply: a cache hit (alias or canonical key), a store hit
// (re-materialized from disk without ADE), or the full pipeline.
func servedPath(resp *server.Response) string {
	switch {
	case resp.Cache != nil && resp.Cache.Disk:
		return "disk"
	case resp.Cache != nil && resp.Cache.Hit:
		return "hit"
	}
	return "miss"
}

// traced runs the traced half of a serve workload: the closed-loop and
// reference phases again with spans on, then one replay of each
// distinct reference-phase request through the public calls the
// server makes on the path it took, which splits the handler time by
// layer.
func (s *serveSetup) traced(workload string, res *result, c serveCfg, d time.Duration, untracedP50 float64, t *tally) error {
	tr := newTracer()
	s.rig.tr.Store(tr)
	var rt rtDelta
	rt0 := readRT()
	m, err := s.measure(workload, c, s.plan.tref, d, false, t)
	s.rig.tr.Store(nil)
	if err != nil {
		return err
	}
	rt.add(rt0, readRT())
	rt.peakHeap = m.refRT.peakHeap
	rs := m.ref

	l := res.layer
	res.overheadPct = 100 * (median(pick(m.p50s, m.quiet()))/untracedP50 - 1)
	res.notef("traced reference p50 per round (ms): %s", fmtList(m.p50s, "%.3f"))
	tt := tr.totals()
	perReq := func(d time.Duration, n int) float64 { return us(d) / float64(max(n, 1)) }
	l["http.rtt_us"] = perReq(tt.total["http.rtt"], tt.n["http.rtt"])
	l["server.handler_us"] = perReq(tt.total["server.handler"], tt.n["server.handler"])
	l["transport_us"] = l["http.rtt_us"] - l["server.handler_us"]
	var wall float64
	for _, x := range rs {
		if x.ok {
			wall += x.resp.WallMs
		}
	}
	l["server.exec_ms"] = wall / float64(len(rs))
	for k, v := range m.refStats {
		l[k] = v
	}
	if n := l["cache.hits"] + l["cache.misses"]; n > 0 {
		l["cache.hit_ratio"] = l["cache.hits"] / n
	}
	rt.rtMetrics(l)
	res.notef("traced reference-phase counts: cache hits=%.0f misses=%.0f over %d requests",
		l["cache.hits"], l["cache.misses"], len(rs))

	// Replay each distinct (request, path) once, weighted by how often
	// the reference phase served it that way.
	type key struct{ body, path string }
	weight := map[key]int{}
	var order []key
	first := map[key]sample{}
	for _, x := range rs {
		if !x.ok {
			continue
		}
		k := key{string(x.q.Body()), servedPath(x.resp)}
		if weight[k] == 0 {
			order = append(order, k)
			first[k] = x
		}
		weight[k]++
	}
	rp, err := newReplayer(workload == "serve-churn")
	if err != nil {
		return err
	}
	defer rp.close()
	sum := map[string]time.Duration{}
	var vmSteps uint64
	var vmRun time.Duration
	for i, k := range order {
		x := first[k]
		w := weight[k]
		rtr := newTracer()
		st, err := rp.replay(rtr, int64(i), x.q, k.path, l, float64(w))
		if err != nil {
			return fmt.Errorf("replaying a %s request (%s path): %w", x.q.Family, k.path, err)
		}
		addCollCounts(l, st, float64(w))
		tot := rtr.totals()
		for name, d := range tot.self {
			sum[name] += time.Duration(w) * d
		}
		if x.q.Engine == "vm" {
			vmSteps += uint64(w) * st.Steps
			vmRun += time.Duration(w) * tot.self["vm.run"]
		}
		tr.absorb(rtr)
	}
	n := len(rs)
	per := func(name string) float64 { return perReq(sum[name], n) }
	l["server.decode_us"] = per("server.decode")
	l["parse_us"] = per("parse")
	l["ir.verify_us"] = per("ir.verify")
	l["ir.hash_us"] = per("ir.hash")
	ade := sum["ade"]
	for _, ph := range adePhases {
		l["ade."+ph+"_us"] = per("ade." + ph)
		ade += sum["ade."+ph]
	}
	l["ade_us"] = perReq(ade, n)
	l["ade.other_us"] = per("ade")
	l["bc.compile_us"] = per("bc.compile")
	l["bc.verify_us"] = per("bc.verify")
	l["store.put_us"] = per("store.put")
	l["store.get_us"] = per("store.get")
	l["vm.run_us"] = per("vm.run")
	l["interp.run_us"] = per("interp.run")
	if vmSteps > 0 {
		l["vm.ns_per_step"] = float64(vmRun) / float64(vmSteps)
	}
	res.tracer = tr
	res.notef("replayed %d distinct (request, path) pairs of %d traced reference requests", len(order), n)
	return nil
}

// replayer re-executes served requests through the server's public
// building blocks. For serve-churn it owns a private store, so store
// calls are timed against the same on-disk format the server uses.
type replayer struct {
	st  *store.Store
	dir string
	cfg server.Config
}

func newReplayer(withStore bool) (*replayer, error) {
	rp := &replayer{cfg: server.DefaultConfig()}
	if !withStore {
		return rp, nil
	}
	dir, err := os.MkdirTemp("", "perfbench-replay-")
	if err != nil {
		return nil, err
	}
	rp.dir = dir
	if rp.st, err = store.Open(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return rp, nil
}

func (rp *replayer) close() {
	if rp.dir != "" {
		os.RemoveAll(rp.dir)
	}
}

// replay runs one request down the path the server took, one span per
// layer call, and returns the execution's counts. Compile-side counts
// are folded into counts with weight w.
func (rp *replayer) replay(tr *tracer, id int64, q Req, path string, counts map[string]float64, w float64) (*interp.Stats, error) {
	root := tr.begin("replay", -1, id)
	defer tr.end(root)
	sp := tr.begin("server.decode", root, id)
	_, aerr := server.DecodeRequest(q.Body(), "application/json", nil, rp.cfg.MaxProgramBytes)
	tr.end(sp)
	if aerr != nil {
		return nil, fmt.Errorf("decode: %s", aerr.Message)
	}
	var prog *ir.Program
	var bc *bytecode.Prog
	var err error
	switch path {
	case "hit":
		// The artifact came from the cache: build it outside any span.
		prog, bc, err = compile(q.Program, compileOpts{ade: true, server: true, parent: -1})
	case "miss":
		prog, bc, err = compile(q.Program, compileOpts{ade: true, server: true, tr: tr, parent: root, req: id, counts: counts, weight: w})
		if err == nil && rp.st != nil {
			sp = tr.begin("store.put", root, id)
			err = rp.st.PutArtifact(&store.Entry{ProgramHash: ir.ProgramHash(prog), OptionsFP: "perfbench", ADE: true, Program: ir.Print(prog)})
			tr.end(sp)
		}
	case "disk":
		prog, bc, err = rp.fromDisk(tr, root, id, q.Program)
	}
	if err != nil {
		return nil, err
	}
	return rp.exec(tr, root, id, q, prog, bc)
}

// fromDisk replays a store hit: parse, verify and hash the request,
// read the persisted post-ADE text, and re-materialize it (parse,
// verify, bytecode compile and verify; no ADE).
func (rp *replayer) fromDisk(tr *tracer, root int, id int64, text string) (*ir.Program, *bytecode.Prog, error) {
	pre, _, err := compile(text, compileOpts{ade: false, server: true, parent: -1})
	if err != nil {
		return nil, nil, err
	}
	hash := ir.ProgramHash(pre)
	post, _, err := compile(text, compileOpts{ade: true, server: true, parent: -1})
	if err != nil {
		return nil, nil, err
	}
	if err := rp.st.PutArtifact(&store.Entry{ProgramHash: hash, OptionsFP: "perfbench", ADE: true, Program: ir.Print(post)}); err != nil {
		return nil, nil, err
	}
	if _, _, err := compileFront(tr, root, id, text); err != nil {
		return nil, nil, err
	}
	sp := tr.begin("store.get", root, id)
	e, err := rp.st.GetArtifact(hash, "perfbench")
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	return compile(e.Program, compileOpts{tr: tr, parent: root, req: id})
}

// compileFront is the request-side front end of every non-alias path:
// parse, verify and hash.
func compileFront(tr *tracer, root int, id int64, text string) (*ir.Program, string, error) {
	sp := tr.begin("parse", root, id)
	prog, err := parser.Parse(text)
	tr.end(sp)
	if err != nil {
		return nil, "", err
	}
	sp = tr.begin("ir.verify", root, id)
	err = ir.Verify(prog)
	tr.end(sp)
	if err != nil {
		return nil, "", err
	}
	sp = tr.begin("ir.hash", root, id)
	h := ir.ProgramHash(prog)
	tr.end(sp)
	return prog, h, nil
}

// exec runs the artifact on the request's engine under the server's
// default budgets.
func (rp *replayer) exec(tr *tracer, root int, id int64, q Req, prog *ir.Program, bc *bytecode.Prog) (*interp.Stats, error) {
	opts := interp.DefaultOptions()
	opts.MaxSteps = rp.cfg.DefaultMaxSteps
	opts.MaxBytes = rp.cfg.DefaultMaxMem
	ctx, cancel := context.WithTimeout(context.Background(), rp.cfg.DefaultTimeout)
	defer cancel()
	opts.Context = ctx
	args := make([]interp.Val, len(q.Args))
	for i, a := range q.Args {
		args[i] = interp.IntV(a)
	}
	if q.Engine == "vm" {
		sp := tr.begin("vm.run", root, id)
		m := vm.New(bc, opts)
		_, err := m.Run("main", args...)
		tr.end(sp)
		return m.Stats, err
	}
	sp := tr.begin("interp.run", root, id)
	ip := interp.New(ir.CloneProgram(prog), opts)
	_, err := ip.Run("main", args...)
	tr.end(sp)
	return ip.Stats, err
}
