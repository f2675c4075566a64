package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memoir/internal/server"
)

// serveCfg fixes a serve workload's load shape. Rates do not depend on
// the seed, so runs with different seeds load the server equally. The
// values are assumptions, not taken from recorded traffic; README.md
// ("Assumed traffic") gives what each was chosen for.
type serveCfg struct {
	refRate float64       // open-loop reference rate (req/s)
	ladder  []float64     // open-loop rates tried for max_ok_rps, ascending
	limit   time.Duration // latency limit on the tail at every rate
	// closedAhead is how many closed-loop requests per second of the
	// phase set-up draws and marshals ahead of time. It is not a cap: a
	// faster server gets further requests from the plan's stream. Every
	// closed-loop reply is checked against a reference computed after
	// the window that sent it.
	closedAhead float64
}

var serveCfgs = map[string]serveCfg{
	"serve-hot":   {refRate: 300, ladder: []float64{300, 700, 1100, 1500, 1900, 2300, 2700, 3100}, limit: 25 * time.Millisecond, closedAhead: 8000},
	"serve-cold":  {refRate: 300, ladder: []float64{300, 450, 600, 750, 900}, limit: 50 * time.Millisecond, closedAhead: 1800},
	"serve-churn": {refRate: 300, ladder: []float64{300, 450, 600, 750, 900}, limit: 50 * time.Millisecond, closedAhead: 2400},
}

// phaseLengths splits a measured stretch d into the closed-loop phase,
// the reference phase and one ladder rung. The closed loop, whose
// throughput moves most with the load of a shared host, gets as much
// time as the reference phase; the ladder, which only feeds the
// ungated max_ok_rps, gets the rest.
func phaseLengths(d time.Duration, rungs int) (closed, ref, rung time.Duration) {
	return d * 2 / 5, d * 2 / 5, d / 5 / time.Duration(rungs)
}

// plannedCounts is the number of requests of each open-loop phase:
// the reference phase, then every ladder rung.
func plannedCounts(c serveCfg, d time.Duration) (closed int, counts []int) {
	cd, rd, gd := phaseLengths(d, len(c.ladder))
	counts = append(counts, int(c.refRate*rd.Seconds()))
	for _, r := range c.ladder {
		counts = append(counts, int(r*gd.Seconds()))
	}
	return int(c.closedAhead * (cd + cd/rounds).Seconds()), counts
}

// rig is the server under test, mounted on a loopback listener, and
// the client that drives it.
type rig struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	tr     atomic.Pointer[tracer]
	rtt    sync.Map // request id -> rtt span index, to parent handler spans
	reqID  atomic.Int64
	dir    string // durable store directory (serve-churn)
}

const reqHeader = "X-Perfbench-Req"

// startRig starts the server; withStore gives it a durable store in a
// fresh directory under $TMPDIR, which run.sh points into .bench_build.
func startRig(withStore bool) (*rig, error) {
	r := &rig{served: make(chan error, 1)}
	cfg := server.DefaultConfig()
	cfg.AccessLog = io.Discard
	if withStore {
		dir, err := os.MkdirTemp("", "perfbench-store-")
		if err != nil {
			return nil, err
		}
		r.dir, cfg.StoreDir = dir, dir
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	h := srv.Handler()
	r.srv = srv
	r.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		tr := r.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, q)
			return
		}
		id, _ := strconv.ParseInt(q.Header.Get(reqHeader), 10, 64)
		parent := -1
		if v, ok := r.rtt.Load(id); ok {
			parent = v.(int)
		}
		sp := tr.begin("server.handler", parent, id)
		h.ServeHTTP(w, q)
		tr.end(sp)
	})}
	go func() { r.served <- r.hs.Serve(ln) }()
	r.url = "http://" + ln.Addr().String()
	n := runtime.NumCPU()
	r.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	return r, nil
}

// stop shuts the server down, waits for its serve loop to return and
// removes the store directory.
func (r *rig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := r.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	r.client.CloseIdleConnections()
	if r.dir != "" {
		if rerr := os.RemoveAll(r.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// do sends one request and decodes the reply.
func (r *rig) do(q Req) (*server.Response, error) {
	id := r.reqID.Add(1)
	tr := r.tr.Load()
	sp := tr.begin("http.rtt", -1, id)
	defer tr.end(sp)
	if sp >= 0 {
		r.rtt.Store(id, sp)
	}
	hq, err := http.NewRequest(http.MethodPost, r.url+"/v1/run", bytes.NewReader(q.Body()))
	if err != nil {
		return nil, err
	}
	hq.Header.Set("Content-Type", "application/json")
	hq.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	hr, err := r.client.Do(hq)
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	var resp server.Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("decoding reply: %w", err)
	}
	return &resp, nil
}

// statsDoc is the part of /v1/stats the benchmark reads.
type statsDoc struct {
	Errors map[string]uint64 `json:"errors"`
	Cache  struct {
		Hits, Misses, Evictions uint64
	} `json:"cache"`
	Store *struct {
		Writes      uint64 `json:"writes"`
		WriteErrors uint64 `json:"writeErrors"`
		Fsyncs      uint64 `json:"fsyncs"`
		DiskLoads   uint64 `json:"diskLoads"`
	} `json:"store"`
}

func (r *rig) stats() (*statsDoc, error) {
	hr, err := r.client.Get(r.url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	var doc statsDoc
	if err := json.NewDecoder(hr.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return &doc, nil
}

// feed hands the closed loop its requests in plan order: the ones
// drawn ahead, then as many more from the plan's endless stream as the
// server can take, so a fast server never runs out of work.
type feed struct {
	mu    sync.Mutex
	ahead []Req
	more  func() Req
	n     int
}

func (f *feed) next() Req {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if f.n <= len(f.ahead) {
		return f.ahead[f.n-1]
	}
	return f.more()
}

// expect is what a correct reply to a request carries.
type expect struct {
	ans   answer
	stats *server.RunStats // exact run counts, when known from set-up
}

// serveSetup is a serve workload after set-up.
type serveSetup struct {
	plan   *servePlan
	closed *feed
	expect map[string]*expect // by Req.answerKey
	rig    *rig
}

func setupServe(workload string, seed int64, d time.Duration, traced bool) (*serveSetup, string, error) {
	c := serveCfgs[workload]
	closed, counts := plannedCounts(c, d)
	plan := planFor(workload, seed, closed, counts, traced)
	s := &serveSetup{plan: plan, expect: map[string]*expect{}}
	s.closed = &feed{ahead: plan.closed, more: plan.more}
	h := sha256.New()
	var distinct []Req
	all := append(append([]Req{}, plan.prime...), plan.requests()...)
	for i, q := range all {
		h.Write(q.Body())
		// Set-up references the primed and open-loop requests. The
		// closed loop's are referenced after the window that sends
		// them, like those the stream supplies beyond them, so the
		// repeated set-ups do not compute them three times.
		if i >= len(plan.prime) && i < len(plan.prime)+len(plan.closed) {
			continue
		}
		if k := q.answerKey(); s.expect[k] == nil {
			s.expect[k] = &expect{}
			distinct = append(distinct, q)
		}
	}
	if err := s.references(distinct); err != nil {
		return nil, "", err
	}
	for _, q := range distinct {
		fmt.Fprintln(h, s.expect[q.answerKey()].ans)
	}
	rg, err := startRig(workload == "serve-churn")
	if err != nil {
		return nil, "", err
	}
	s.rig = rg
	// Priming compiles the working set into the cache (and, for
	// serve-churn, the store), and records each program's exact run
	// counts so every later reply is checked against them.
	for _, q := range plan.prime {
		resp, err := rg.do(q)
		if err == nil {
			err = s.check(q, resp)
		}
		if err != nil {
			rg.stop()
			return nil, "", fmt.Errorf("priming: %w", err)
		}
		s.expect[q.answerKey()].stats = resp.Stats
		fmt.Fprintf(h, "%+v\n", *resp.Stats)
	}
	return s, hex.EncodeToString(h.Sum(nil)), nil
}

// references computes the reference answer of every distinct request,
// one worker per CPU.
func (s *serveSetup) references(qs []Req) error {
	var next atomic.Int64
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(qs); i = int(next.Add(1) - 1) {
				ans, _, err := reference(qs[i].Program, qs[i].Args)
				if err != nil {
					errs[w] = fmt.Errorf("%s reference: %w", qs[i].Family, err)
					return
				}
				s.expect[qs[i].answerKey()].ans = ans
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// addReferences computes the references of the closed-loop requests
// that have none yet. It runs after the window that sent them, so it
// takes no time from any measurement.
func (s *serveSetup) addReferences(ss []sample) error {
	var qs []Req
	for _, x := range ss {
		if k := x.q.answerKey(); s.expect[k] == nil {
			s.expect[k] = &expect{}
			qs = append(qs, x.q)
		}
	}
	return s.references(qs)
}

// check verifies a reply against the reference.
func (s *serveSetup) check(q Req, resp *server.Response) error {
	if !resp.OK {
		if resp.Error != nil {
			return fmt.Errorf("%s: %s: %s", q.Family, resp.Error.Code, resp.Error.Message)
		}
		return fmt.Errorf("%s: reply not ok", q.Family)
	}
	want := s.expect[q.answerKey()]
	if resp.Output == nil || resp.Stats == nil {
		return fmt.Errorf("%s: reply without output or stats", q.Family)
	}
	got := answer{resp.Result, resp.Output.Count, resp.Output.Checksum}
	if got != want.ans {
		return fmt.Errorf("%s: wrong answer %v, reference %v", q.Family, got, want.ans)
	}
	if want.stats != nil && *resp.Stats != *want.stats {
		return fmt.Errorf("%s: run counts %+v, primed %+v", q.Family, *resp.Stats, *want.stats)
	}
	return nil
}

// sample is one request's outcome.
type sample struct {
	q    Req
	resp *server.Response
	lat  time.Duration // from due (open loop) or send (closed loop)
	late time.Duration // generator lateness (open loop)
	ok   bool
}

// tally counts attempts and failures across phases.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) add(s *serveSetup, ss []sample, errsIn []error) {
	for i, x := range ss {
		t.attempted++
		err := errsIn[i]
		if err == nil {
			err = s.check(x.q, x.resp)
		}
		if err != nil {
			t.failed++
			if len(t.errs) < 10 {
				t.errs = append(t.errs, err.Error())
			}
			continue
		}
		ss[i].ok = true
	}
}

// closedLoop runs one client per CPU, each sending its next request
// from the feed when the previous reply arrives, until d passes.
func (s *serveSetup) closedLoop(d time.Duration) ([]sample, []error, time.Duration) {
	n := runtime.NumCPU()
	outs := make([][]sample, n)
	errs := make([][]error, n)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				q := s.closed.next()
				t0 := time.Now()
				resp, err := s.rig.do(q)
				outs[w] = append(outs[w], sample{q: q, resp: resp, lat: time.Since(t0)})
				errs[w] = append(errs[w], err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	var outErrs []error
	for w := range outs {
		out, outErrs = append(out, outs[w]...), append(outErrs, errs[w]...)
	}
	return out, outErrs, elapsed
}

// openLoop sends reqs at a fixed rate regardless of replies: a
// generator goroutine releases each request at its due time to one of
// NumCPU senders, and latency runs from the due time, so a stall
// charges every request queued behind it.
func (s *serveSetup) openLoop(reqs []Req, rate float64) ([]sample, []error) {
	type job struct {
		i   int
		due time.Time
	}
	// Buffered for the whole phase, so the generator never waits for a
	// sender and a backlog shows up as latency, not as a late schedule.
	jobs := make(chan job, len(reqs))
	out := make([]sample, len(reqs))
	errs := make([]error, len(reqs))
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(jobs)
		for i := range reqs {
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			out[i].late = time.Since(due)
			jobs <- job{i, due}
		}
	}()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				resp, err := s.rig.do(reqs[j.i])
				out[j.i].q, out[j.i].resp, out[j.i].lat = reqs[j.i], resp, time.Since(j.due)
				errs[j.i] = err
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// latencies returns the latencies (ms) of the samples; a failed
// request counts as missing any limit, so it is +Inf.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, x := range ss {
		out[i] = ms(x.lat)
		if !x.ok {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// rounds is how many times a measured stretch alternates a closed-loop
// window with a reference-rate window, after one untimed closed-loop
// window of warm-up. Throughput and latency come from the quieter half
// of the rounds, so a burst of load from a neighbour on a shared
// machine moves one round, not the result.
const rounds = 9

// rungVerdict judges one open-loop rate: the tail must meet the limit,
// the backlog must not grow (the last quarter's median latency stays
// within twice the first quarter's plus 1 ms) and the generator must
// not have fallen behind its schedule (the median lateness of its last
// quarter stays under a quarter of the limit).
type rungVerdict struct {
	rate               float64
	n                  int
	p50, tail, q       float64
	lateP50, lateP99   float64 // ms
	growing, genBehind bool
	ok                 bool
}

func judge(ss []sample, rate float64, limit time.Duration) rungVerdict {
	lat := latencies(ss)
	v := rungVerdict{rate: rate, n: len(ss), q: tailQuantile(len(lat))}
	v.p50, v.tail = quantile(lat, 0.5), quantile(lat, v.q)
	late := make([]float64, len(ss))
	for i, x := range ss {
		late[i] = ms(x.late)
	}
	v.lateP50, v.lateP99 = quantile(late, 0.5), quantile(late, 0.99)
	if q := len(lat) / 4; q > 0 {
		first, last := quantile(lat[:q], 0.5), quantile(lat[len(lat)-q:], 0.5)
		v.growing = last > 2*first+1
		v.genBehind = quantile(late[len(late)-q:], 0.5) > ms(limit)/4
	}
	v.ok = v.tail <= ms(limit) && !v.growing && !v.genBehind
	return v
}

func (v rungVerdict) String() string {
	verdict := "ok"
	switch {
	case v.genBehind:
		verdict = "FAIL (generator behind schedule)"
	case v.growing:
		verdict = "FAIL (backlog growing)"
	case !v.ok:
		verdict = "FAIL (tail over limit)"
	}
	return fmt.Sprintf("rate %6.0f/s: n=%d p50=%.3fms p%.1f=%.3fms generator late p50=%.3fms p99=%.3fms: %s",
		v.rate, v.n, v.p50, 100*v.q, v.tail, v.lateP50, v.lateP99, verdict)
}

// counters accumulates /v1/stats deltas.
type counters map[string]float64

func (c counters) addDelta(a, b *statsDoc) {
	for code, n := range b.Errors {
		c["server.errors"] += float64(n - a.Errors[code])
	}
	c["cache.hits"] += float64(b.Cache.Hits - a.Cache.Hits)
	c["cache.misses"] += float64(b.Cache.Misses - a.Cache.Misses)
	c["cache.evictions"] += float64(b.Cache.Evictions - a.Cache.Evictions)
	if a.Store != nil && b.Store != nil {
		c["store.writes"] += float64(b.Store.Writes - a.Store.Writes)
		c["store.fsyncs"] += float64(b.Store.Fsyncs - a.Store.Fsyncs)
		c["store.disk_loads"] += float64(b.Store.DiskLoads - a.Store.DiskLoads)
		c["store.write_errors"] += float64(b.Store.WriteErrors - a.Store.WriteErrors)
	}
}

// serveMeasure is one measured stretch of a serve workload.
type serveMeasure struct {
	rates       []float64 // closed-loop ok replies per second, per round
	closedS     []float64 // closed-loop window length (s), per round
	closedN     int
	p50s, tails []float64 // reference-rate latency per round (ms)
	tailQ       float64
	ref         []sample   // every reference-rate sample, in send order
	refRounds   [][]sample // the same, per round
	steal       []float64  // % of CPU time stolen, per round
	stealOK     bool
	refRT       rtDelta  // Go runtime over the reference windows
	refStats    counters // /v1/stats deltas over the reference windows
	rungs       []rungVerdict
	maxOK       float64
}

// quiet returns the rounds the end-to-end figures come from.
func (m *serveMeasure) quiet() []int { return quietHalf(m.steal, m.stealOK) }

// throughput is the closed-loop rate pooled over the given rounds: all
// their ok replies over all their time.
func (m *serveMeasure) throughput(idx []int) float64 {
	var ok, sec float64
	for _, k := range idx {
		ok += m.rates[k] * m.closedS[k]
		sec += m.closedS[k]
	}
	return ok / sec
}

// pick returns xs at the given indices.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, k := range idx {
		out[i] = xs[k]
	}
	return out
}

// measure alternates closed-loop and reference-rate windows for
// rounds rounds, then (when ladder is set) climbs the rate ladder.
func (s *serveSetup) measure(workload string, c serveCfg, ref []Req, d time.Duration, ladder bool, t *tally) (*serveMeasure, error) {
	m := &serveMeasure{refStats: counters{}}
	closedD, _, _ := phaseLengths(d, len(c.ladder))
	m.stealOK = true
	// Warm-up: fills serve-cold's cache up to its bound and lets the
	// Go runtime settle. Its replies are checked, not timed.
	ws, werrs, _ := s.closedLoop(closedD / rounds)
	if err := s.addReferences(ws); err != nil {
		return nil, err
	}
	m.closedN += len(ws)
	t.add(s, ws, werrs)
	for r := 0; r < rounds; r++ {
		steal0, ok0 := cpuSteal()
		cs, cerrs, el := s.closedLoop(closedD / rounds)
		if err := s.addReferences(cs); err != nil {
			return nil, err
		}
		m.closedN += len(cs)
		t.add(s, cs, cerrs)
		var ok int
		for _, x := range cs {
			if x.ok {
				ok++
			}
		}
		m.rates = append(m.rates, float64(ok)/el.Seconds())
		m.closedS = append(m.closedS, el.Seconds())

		before, err := s.rig.stats()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		rt0 := readRT()
		rs, rerrs := s.openLoop(ref[r*len(ref)/rounds:(r+1)*len(ref)/rounds], c.refRate)
		m.refRT.add(rt0, readRT())
		m.refRT.sampleHeap()
		after, err := s.rig.stats()
		if err != nil {
			return nil, err
		}
		m.refStats.addDelta(before, after)
		t.add(s, rs, rerrs)
		lat := latencies(rs)
		m.tailQ = tailQuantile(len(lat))
		m.p50s = append(m.p50s, quantile(lat, 0.5))
		m.tails = append(m.tails, quantile(lat, m.tailQ))
		m.ref = append(m.ref, rs...)
		m.refRounds = append(m.refRounds, rs)
		steal1, ok1 := cpuSteal()
		m.steal = append(m.steal, steal1.since(steal0))
		m.stealOK = m.stealOK && ok0 && ok1
	}
	checkCache(workload, m, t)
	if !ladder {
		return m, nil
	}
	for k, rate := range c.ladder {
		ss, errs := s.openLoop(s.plan.ladder[k], rate)
		t.add(s, ss, errs)
		v := judge(ss, rate, c.limit)
		m.rungs = append(m.rungs, v)
		if !v.ok {
			break
		}
		m.maxOK = rate
	}
	return m, nil
}

// checkCache asserts the exact cache outcome of the reference windows:
// every serve-hot request is a hit and every serve-cold request a miss.
// Each request whose outcome differs counts as a failure. Serve-churn's
// counts depend on how concurrent requests interleave and are not
// asserted.
func checkCache(workload string, m *serveMeasure, t *tally) {
	n := float64(len(m.ref))
	hits, misses := m.refStats["cache.hits"], m.refStats["cache.misses"]
	var wrong float64
	switch workload {
	case "serve-hot":
		wrong = math.Max(math.Abs(n-hits), misses)
	case "serve-cold":
		wrong = math.Max(math.Abs(n-misses), hits)
	default:
		return
	}
	if wrong == 0 {
		return
	}
	t.failed += int(math.Min(wrong, n))
	t.errs = append(t.errs, fmt.Sprintf("%s: %.0f reference requests gave %.0f cache hits and %.0f misses",
		workload, n, hits, misses))
}

// serveWorkload runs serve-hot, serve-cold or serve-churn.
func serveWorkload(workload string, seed int64, d time.Duration, traced bool) (*result, error) {
	c := serveCfgs[workload]
	measureD := d
	if traced {
		measureD = d / 2
	}
	var s *serveSetup
	setup, err := repeatSetup(func() (string, error) {
		if s != nil {
			if err := s.rig.stop(); err != nil {
				return "", err
			}
		}
		ns, digest, err := setupServe(workload, seed, measureD, traced)
		s = ns
		return digest, err
	})
	if err != nil {
		if s != nil {
			s.rig.stop()
		}
		return nil, err
	}
	res, err := s.run(workload, c, measureD, setup, traced)
	if serr := s.rig.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping the server: %w", serr)
	}
	return res, err
}

func (s *serveSetup) run(workload string, c serveCfg, d time.Duration, setup float64, traced bool) (*result, error) {
	res := newResult(setup)
	t := &tally{}
	m, err := s.measure(workload, c, s.plan.ref, d, true, t)
	if err != nil {
		return nil, err
	}
	e := res.e2e
	quiet := m.quiet()
	e["req_per_s"] = m.throughput(quiet)
	e["p50_ms"] = median(pick(m.p50s, quiet))
	res.extra["p99_ms"] = median(pick(m.tails, quiet))
	n := float64(len(m.ref))
	e["allocs_per_op"] = float64(m.refRT.mallocs) / n
	e["bytes_per_op"] = float64(m.refRT.bytes) / n
	// Execution time comes from the quiet rounds; the modeled peak does
	// not depend on the machine, so it comes from every round.
	wall, peak := map[string][]float64{}, map[string][]float64{}
	for r, rs := range m.refRounds {
		isQuiet := slices.Contains(quiet, r)
		for _, x := range rs {
			if !x.ok {
				continue
			}
			k := x.q.Engine + "|" + x.q.answerKey()
			if isQuiet {
				wall[k] = append(wall[k], x.resp.WallMs)
			}
			peak[k] = append(peak[k], float64(x.resp.Stats.PeakBytes))
		}
	}
	e["run_ms"] = geoOfMedians(wall)
	e["model_peak_bytes"] = geoOfMedians(peak)
	res.extra["max_ok_rps"] = m.maxOK
	res.notef("%s: a closed-loop warm-up, then %d rounds of a closed loop (%d clients; %d requests in all, warm-up included) and an open loop at %.0f/s (%d requests in all)",
		workload, rounds, runtime.NumCPU(), m.closedN, c.refRate, len(m.ref))
	res.notef("closed-loop req/s per round: %s", fmtList(m.rates, "%.0f"))
	res.notef("reference p50 per round (ms): %s", fmtList(m.p50s, "%.3f"))
	res.notef("reference p%.1f per round (ms): %s", 100*m.tailQ, fmtList(m.tails, "%.3f"))
	res.notef("cpu steal per round (%%): %s; end-to-end figures from rounds %v", fmtList(m.steal, "%.1f"), quiet)
	res.notef("reference %s", judge(m.ref, c.refRate, c.limit))
	for _, v := range m.rungs {
		res.notef("ladder %s", v)
	}
	res.notef("latency limit %v on the tail; max_ok_rps=%.0f", c.limit, m.maxOK)
	res.notef("reference-phase counts: cache hits=%.0f misses=%.0f evictions=%.0f",
		m.refStats["cache.hits"], m.refStats["cache.misses"], m.refStats["cache.evictions"])
	if traced {
		if err := s.traced(workload, res, c, d, e["p50_ms"], t); err != nil {
			return nil, err
		}
	}
	res.attempted, res.failed, res.errs = t.attempted, t.failed, t.errs
	return res, nil
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
