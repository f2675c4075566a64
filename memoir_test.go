package memoir

import (
	"os"
	"strings"
	"testing"
)

const histSrc = `
fn u64 @main(): exported
  %input := new Seq<u64>()
  do:
    %i := phi(0, %i1)
    %in0 := phi(%input, %in1)
    %v := rem(%i, 7)
    %sparse := mul(%v, 982451653)
    %in1 := insert(%in0, end, %sparse)
    %i1 := add(%i, 1)
    %more := lt(%i1, 500)
  while %more
  %inF := phi(%in0)
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

func TestCompileAndRun(t *testing.T) {
	base, err := Compile(histSrc, WithoutADE())
	if err != nil {
		t.Fatal(err)
	}
	ade, err := Compile(histSrc)
	if err != nil {
		t.Fatal(err)
	}
	if ade.Report == "" {
		t.Fatal("ADE produced no report")
	}
	if !strings.Contains(ade.Text(), "Map{BitMap}<idx,u32>") {
		t.Fatalf("ADE did not rewrite the map type:\n%s", ade.Text())
	}
	rb, err := base.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	ra, err := ade.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if rb.Value != 7 || ra.Value != rb.Value {
		t.Fatalf("values: base=%d ade=%d", rb.Value, ra.Value)
	}
	if rb.Checksum != ra.Checksum || rb.Outputs != ra.Outputs {
		t.Fatal("ADE changed observable output")
	}
	if ra.Sparse >= rb.Sparse || ra.Dense <= rb.Dense {
		t.Fatalf("access mix did not shift: sparse %d->%d dense %d->%d",
			rb.Sparse, ra.Sparse, rb.Dense, ra.Dense)
	}
}

func TestCompileOptions(t *testing.T) {
	for _, opt := range []Option{WithoutRTE(), WithoutPropagation(), WithoutSharing(), WithSparseSets(), WithSwissDefaults()} {
		p, err := Compile(histSrc, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run("main"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWithEngine checks the façade's engine switch: the bytecode VM
// must reproduce the interpreter's result and deterministic
// measurements exactly, with and without ADE.
func TestWithEngine(t *testing.T) {
	for _, opts := range [][]Option{
		{WithoutADE()},
		nil,
		{WithSparseSets()},
	} {
		pi, err := Compile(histSrc, opts...)
		if err != nil {
			t.Fatal(err)
		}
		pv, err := Compile(histSrc, append(opts, WithEngine(EngineVM))...)
		if err != nil {
			t.Fatal(err)
		}
		ri, err := pi.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		rv, err := pv.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		ri.Wall, rv.Wall = 0, 0
		if *ri != *rv {
			t.Fatalf("engines disagree:\n  interp: %+v\n  vm:     %+v", ri, rv)
		}
	}
}

func TestCompileRejectsBadProgram(t *testing.T) {
	if _, err := Compile("fn void @f():\n  %x := add(%ghost, 1)\n  ret\n"); err == nil {
		t.Fatal("bad program accepted")
	}
	if _, err := Parse("fn broken"); err == nil {
		t.Fatal("truncated program accepted")
	}
}

func TestSparseSetsOption(t *testing.T) {
	p, err := Compile(histSrc, WithSparseSets())
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	base, _ := Compile(histSrc, WithoutADE())
	rb, _ := base.Run("main")
	if r.Checksum != rb.Checksum {
		t.Fatal("sparse-set configuration changed output")
	}
}

// TestCollectProfileGuidesCompile drives the profile loop through the
// public API: a profile collected on coldmap's untransformed program
// skips the cold %vstats map without changing the result, and a
// profile collected from another program is reported stale and
// ignored.
func TestCollectProfileGuidesCompile(t *testing.T) {
	raw, err := os.ReadFile("testdata/coldmap.mir")
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw)
	run := func(p *Program) *Result {
		t.Helper()
		r, err := p.Run("main", 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	parsed, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := parsed.CollectProfile("main", 0)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	pgo, err := Compile(src, WithProfile(prof))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pgo.Report, "profile: weighted") {
		t.Fatalf("profile not applied:\n%s", pgo.Report)
	}
	skipped := false
	for _, l := range strings.Split(pgo.Report, "\n") {
		if strings.HasPrefix(l, "skipped: ") && strings.Contains(l, "%vstats") {
			skipped = true
		}
	}
	if !skipped {
		t.Fatalf("profile-guided compile should skip %%vstats:\n%s", pgo.Report)
	}
	if pgo.Text() == static.Text() {
		t.Fatal("profile did not change the compiled program")
	}
	base, err := Compile(src, WithoutADE())
	if err != nil {
		t.Fatal(err)
	}
	rb, rs, rp := run(base), run(static), run(pgo)
	if rp.Value != rb.Value || rp.Checksum != rb.Checksum || rs.Value != rb.Value || rs.Checksum != rb.Checksum {
		t.Fatalf("results differ: base=%+v static=%+v pgo=%+v", rb, rs, rp)
	}

	other, err := Parse(histSrc)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := other.CollectProfile("main")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := Compile(src, WithProfile(stale))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sp.Report, "profile: stale") {
		t.Fatalf("foreign profile not reported stale:\n%s", sp.Report)
	}
	if sp.Text() != static.Text() {
		t.Fatal("stale profile changed the compiled program")
	}
}
