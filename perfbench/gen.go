package main

import (
	"encoding/json"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"

	"memoir/internal/server"
	"memoir/internal/server/loadtest"
)

// Kernel templates for the serve workloads. They are the histogram,
// PTA and cold-map kernels of testdata/ with their sizes and constants
// turned into %NAME% markers, so the seed can mint distinct programs of
// one family; the fourth family is loadtest.DefaultProgram, whose
// %MOD% marker serves the same purpose.
const histogramKernel = `fn u64 @main(): exported
  %input := new Seq<u64>()
  do:
    %i := phi(0, %i1)
    %in0 := phi(%input, %in1)
    %h := mul(%i, %MUL%)
    %v := rem(%h, %MOD%)
    %sparse := mul(%v, %SPREAD%)
    %in1 := insert(%in0, end, %sparse)
    %i1 := add(%i, 1)
    %more := lt(%i1, %N%)
  while %more
  %inF := phi(%in0)

  roi

  %hist := new Map<u64,u32>()
  for [%i2, %val] in %inF:
    %hist0 := phi(%hist, %hist3)
    %cond := has(%hist0, %val)
    if %cond:
      %freq := read(%hist0, %val)
    else:
      %hist1 := insert(%hist0, %val)
    %freq0 := phi(%freq, 0)
    %hist2 := phi(%hist0, %hist1)
    %freq1 := add(%freq0, 1)
    %hist3 := write(%hist2, %val, %freq1)
  %histF := phi(%hist0)

  for [%k, %f] in %histF:
    %got := read(%histF, %k)
    %g64 := cast<u64>(%got)
    %kv := add(%k, %g64)
    emit(%kv)
  %n := size(%histF)
  ret %n
`

const ptaKernel = `fn u64 @main(): exported
  %ptrs := new Seq<u64>()
  do:
    %i := phi(0, %i1)
    %p0 := phi(%ptrs, %p1)
    %lab := mul(%i, %MUL%)
    %p1 := insert(%p0, end, %lab)
    %i1 := add(%i, 1)
    %m := lt(%i1, %N%)
  while %m
  %ptrsF := phi(%p0)

  #pragma ade inner( noshare )
  %pts := new Map<u64, Set<u64>>()
  for [%j, %q] in %ptrsF:
    %t0 := phi(%pts, %t2)
    %t1 := insert(%t0, %q)
    %obj := rem(%q, %MOD%)
    %objlab := mul(%obj, %SPREAD%)
    %t2 := insert(%t1[%q], %objlab)
  %ptsA := phi(%t0)

  roi

  for [%k, %r] in %ptrsF:
    %u0 := phi(%ptsA, %u1)
    %half := div(%k, 2)
    %src := read(%ptrsF, %half)
    %u1 := union(%u0[%r], %u0[%src])
  %ptsF := phi(%u0)

  for [%l, %s] in %ptrsF:
    %a0 := phi(0, %a1)
    %sz := size(%ptsF[%s])
    %a1 := add(%a0, %sz)
  %aF := phi(%a0)
  emit(%aF)
  ret %aF
`

const coldmapKernel = `fn u64 @main(%verbose: u64): exported
  %input := new Seq<u64>()
  do:
    %i := phi(0, %i1)
    %in0 := phi(%input, %in1)
    %h := mul(%i, %MUL%)
    %v := rem(%h, %MOD%)
    %sparse := mul(%v, %SPREAD%)
    %in1 := insert(%in0, end, %sparse)
    %i1 := add(%i, 1)
    %more := lt(%i1, %N%)
  while %more
  %inF := phi(%in0)

  roi

  %hist := new Map<u64,u64>()
  %vstats := new Map<u64,u64>()
  for [%i2, %val] in %inF:
    %hist0 := phi(%hist, %hist3)
    %vs0 := phi(%vstats, %vs2)
    %cond := has(%hist0, %val)
    if %cond:
      %freq := read(%hist0, %val)
    else:
      %hist1 := insert(%hist0, %val)
    %freq0 := phi(%freq, 0)
    %hist2 := phi(%hist0, %hist1)
    %freq1 := add(%freq0, 1)
    %hist3 := write(%hist2, %val, %freq1)
    %tid := mul(%i2, 1099511628211)
    %vs1 := insert(%vs0, %tid)
    %vs2 := write(%vs1, %tid, %freq1)
  %histF := phi(%hist0)
  %vsF := phi(%vs0)

  for [%k, %f] in %histF:
    %got := read(%histF, %k)
    %kv := add(%k, %got)
    emit(%kv)

  %von := neq(%verbose, 0)
  if %von:
    for [%k2, %f2] in %vsF:
      %g2 := read(%vsF, %k2)
      emit(%g2)
    %yes := sub(0, 0)
  else:
    %no := sub(0, 0)
  %n := size(%histF)
  %nv := size(%vsF)
  %out := add(%n, %nv)
  ret %out
`

// families lists the kernel families in draw order.
var families = []string{"histogram", "pta", "coldmap", "loadtest"}

// sizeRange is the inclusive range a family's input length %N% is
// drawn from. The sizes are assumptions (README.md, "Assumed
// traffic"): hot histograms around loadtest.DefaultProgram's 500
// elements and the other families sized to a VM execution of the same
// order; serve-cold about half that, so the compile dominates a miss.
type sizeRange struct{ lo, hi int }

var hotSizes = map[string]sizeRange{
	"histogram": {500, 700},
	"pta":       {100, 140},
	"coldmap":   {180, 260},
}

var coldSizes = map[string]sizeRange{
	"histogram": {200, 260},
	"pta":       {50, 70},
	"coldmap":   {80, 110},
}

// Req is one generated request: the program text and the wire fields
// the benchmark sets. Engine "" omits the field, so the server takes
// its wire default (interp).
type Req struct {
	Family  string
	Program string
	Engine  string
	Args    []uint64
	body    []byte // the marshalled body, fixed once the request is drawn
}

// Body is the JSON request body sent to POST /v1/run. A drawn request
// carries it already, so the timed client does not marshal the program.
func (r Req) Body() []byte {
	if r.body != nil {
		return r.body
	}
	return r.marshal()
}

func (r Req) marshal() []byte {
	b, err := json.Marshal(struct {
		Program string   `json:"program"`
		Engine  string   `json:"engine,omitempty"`
		Args    []uint64 `json:"args,omitempty"`
	}{r.Program, r.Engine, r.Args})
	if err != nil {
		panic(err) // strings and integers always marshal
	}
	return b
}

// withEngine returns r for the given engine with its body marshalled.
func (r Req) withEngine(engine string) Req {
	r.Engine = engine
	r.body = r.marshal()
	return r
}

// answerKey identifies the computation a request asks for: the
// program and its arguments, not the engine.
func (r Req) answerKey() string {
	var sb strings.Builder
	sb.WriteString(r.Program)
	for _, a := range r.Args {
		sb.WriteString("|")
		sb.WriteString(strconv.FormatUint(a, 10))
	}
	return sb.String()
}

// rngFor derives an independent random stream for one purpose, so a
// change in how much one phase draws never shifts another's inputs.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// minter draws kernel programs; seen makes every minted program
// distinct from every earlier one.
type minter struct {
	rng   *rand.Rand
	sizes map[string]sizeRange
	seen  map[string]bool
}

func newMinter(rng *rand.Rand, sizes map[string]sizeRange) *minter {
	return &minter{rng: rng, sizes: sizes, seen: map[string]bool{}}
}

// mint draws one never-before-minted program of the given family.
func (m *minter) mint(family string) Req {
	for {
		r := m.draw(family)
		if k := r.answerKey(); !m.seen[k] {
			m.seen[k] = true
			return r
		}
	}
}

func (m *minter) draw(family string) Req {
	rng := m.rng
	odd := func() string { return strconv.FormatUint(uint64(rng.Uint32())|1, 10) }
	between := func(r sizeRange) string { return strconv.Itoa(r.lo + rng.Intn(r.hi-r.lo+1)) }
	var text string
	var args []uint64
	switch family {
	case "histogram":
		text = strings.NewReplacer("%MUL%", odd(), "%MOD%", strconv.Itoa(64+rng.Intn(192)),
			"%SPREAD%", odd(), "%N%", between(m.sizes[family])).Replace(histogramKernel)
	case "pta":
		text = strings.NewReplacer("%MUL%", odd(), "%MOD%", strconv.Itoa(8+rng.Intn(24)),
			"%SPREAD%", odd(), "%N%", between(m.sizes[family])).Replace(ptaKernel)
	case "coldmap":
		text = strings.NewReplacer("%MUL%", odd(), "%MOD%", strconv.Itoa(32+rng.Intn(96)),
			"%SPREAD%", odd(), "%N%", between(m.sizes[family])).Replace(coldmapKernel)
		args = []uint64{uint64(rng.Intn(2))}
	case "loadtest":
		text = strings.ReplaceAll(loadtest.DefaultProgram, "%MOD%", strconv.Itoa(17+rng.Intn(1<<20)))
	default:
		panic("unknown kernel family " + family)
	}
	return Req{Family: family, Program: text, Args: args}
}

// mintMix draws one program from a seed-drawn family.
func (m *minter) mintMix() Req { return m.mint(families[m.rng.Intn(len(families))]) }

// Serve plan sizes. No record of production traffic exists for these;
// each is an assumption, chosen as README.md ("Assumed traffic") says.
const (
	// Distinct hot programs: an eighth of the default cache entry bound
	// (server.DefaultConfig().CacheEntries = 256), so the working set
	// fits the cache with room to spare and is never evicted.
	hotWorkingSet = 32
	// Share of hot requests that omit engine and so run on the wire
	// default, interp. Small, so the VM path dominates serve-hot as it
	// dominates the ADE claims, yet large enough that the interp path
	// is on every run (about 360 of the 2400 reference requests of a
	// 20 s run).
	hotInterpPct = 15
	// Churn working set, in multiples of the default cache entry bound:
	// "several times larger" than the cache, so most requests of a pass
	// miss the cache and load from the store.
	churnSetScale = 3
	// Share of each churn pass that is never-seen, so the store keeps
	// taking writes and fsyncs beside its disk loads.
	churnFreshPct = 10
)

// servePlan is a serve workload's whole input: the programs primed in
// set-up and the request stream of every phase, drawn from the seed.
type servePlan struct {
	prime []Req
	// closed is drawn ahead for the closed-loop windows of both halves
	// of a run; a server that takes more gets them from more.
	closed []Req
	ref    []Req   // open loop at the reference rate
	ladder [][]Req // open loop, one slice per ladder rate
	// The traced half of a --trace 1 run sends its own reference
	// requests, so serve-cold's stay never-seen.
	tref []Req
	// more continues the stream past everything drawn above: serve-hot
	// keeps cycling its working set, serve-cold keeps minting
	// never-seen programs and serve-churn keeps making passes.
	more func() Req
}

// requests returns every drawn request of the plan.
func (p *servePlan) requests() []Req {
	out := append([]Req{}, p.closed...)
	out = append(out, p.ref...)
	for _, r := range p.ladder {
		out = append(out, r...)
	}
	return append(out, p.tref...)
}

// planFor draws the plan of a serve workload. closed is the number of
// closed-loop requests drawn ahead for each half of the run; counts
// gives the number of requests of each open-loop phase (reference
// first, then each ladder rate). A traced plan also draws the traced
// half's requests.
func planFor(workload string, seed int64, closed int, counts []int, traced bool) *servePlan {
	p := &servePlan{}
	var next func() Req
	switch workload {
	case "serve-hot":
		m := newMinter(rngFor(seed, "hot/programs"), hotSizes)
		var vm, in []Req // each program as a vm and as an interp request
		for i := 0; i < hotWorkingSet; i++ {
			q := m.mint(families[i%len(families)])
			vm, in = append(vm, q.withEngine("vm")), append(in, q.withEngine(""))
		}
		p.prime = vm
		// Every program gets an equal share (one seed-shuffled cycle
		// of the working set after another) and exactly hotInterpPct of
		// each block of 100 requests omit the engine, so seeds differ in
		// programs and order, not in the traffic mix.
		pick := rngFor(seed, "hot/stream")
		var cycle []int
		var block []bool
		next = func() Req {
			if len(cycle) == 0 {
				cycle = pick.Perm(len(vm))
			}
			if len(block) == 0 {
				block = make([]bool, 100)
				for _, i := range pick.Perm(100)[:hotInterpPct] {
					block[i] = true
				}
			}
			r := vm[cycle[0]]
			if block[0] {
				r = in[cycle[0]]
			}
			cycle, block = cycle[1:], block[1:]
			return r
		}
	case "serve-cold":
		m := newMinter(rngFor(seed, "cold/programs"), coldSizes)
		next = func() Req { return m.mintMix().withEngine("vm") }
	case "serve-churn":
		m := newMinter(rngFor(seed, "churn/programs"), coldSizes)
		set := churnSetScale * server.DefaultConfig().CacheEntries
		for i := 0; i < set; i++ {
			p.prime = append(p.prime, m.mint(families[i%len(families)]).withEngine("vm"))
		}
		order := rngFor(seed, "churn/order")
		var pass []Req
		next = func() Req {
			if len(pass) == 0 {
				// One pass visits the working set once in a fresh
				// seed-drawn order, with never-seen programs mixed in.
				pass = append(pass, p.prime...)
				for i := 0; i < set*churnFreshPct/100; i++ {
					pass = append(pass, m.mintMix().withEngine("vm"))
				}
				order.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
			}
			r := pass[0]
			pass = pass[1:]
			return r
		}
	default:
		panic("not a serve workload: " + workload)
	}
	take := func(n int) []Req {
		out := make([]Req, n)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	halves := 1
	if traced {
		halves = 2
	}
	p.closed = take(halves * closed)
	p.ref = take(counts[0])
	for _, n := range counts[1:] {
		p.ladder = append(p.ladder, take(n))
	}
	if traced {
		p.tref = take(counts[0])
	}
	p.more = next
	return p
}

// suiteOrder is the seed-drawn program order of one suite pass.
func suiteOrder(seed int64, pass, n int) []int {
	return rngFor(seed, "suite/order/"+strconv.Itoa(pass)).Perm(n)
}
