package core

import (
	"testing"

	"memoir/internal/adeprofile"
	"memoir/internal/collections"
	"memoir/internal/faults"
	"memoir/internal/remarks"
	"memoir/internal/telemetry"
)

// siteDoc returns an adeprofile/v1 document with one program per
// hash, each recording reads at the site main#alloc.
func siteDoc(reads uint64, hashes ...string) *adeprofile.Profile {
	p := adeprofile.New()
	for _, h := range hashes {
		s := &adeprofile.SiteProfile{Key: telemetry.SiteKey{Fn: "main", Alloc: 2}}
		s.Ops[telemetry.OpRead] = reads
		p.Programs = append(p.Programs, &adeprofile.ProgramProfile{
			Hash: h, Runs: 1, Sites: []*adeprofile.SiteProfile{s},
		})
	}
	return p
}

// Every decision-relevant Options variation must produce a distinct
// fingerprint — a collision would alias two differently compiled
// artifacts under one cache key.
func TestFingerprintNoCollisions(t *testing.T) {
	base := DefaultOptions()
	variants := map[string]Options{
		"default": base,
	}
	v := base
	v.RTE = false
	variants["no-rte"] = v
	v = base
	v.Propagation = false
	variants["no-prop"] = v
	v = base
	v.Sharing = false
	variants["no-share"] = v
	v = base
	v.SetImpl = collections.ImplSparseBitSet
	variants["sparse-set"] = v
	v = base
	v.MapImpl = collections.ImplSwissMap
	variants["swiss-map"] = v
	v = base
	v.ForceAll = true
	variants["force-all"] = v
	v = base
	v.Check = true
	variants["check"] = v
	v = base
	v.Sandbox = true
	variants["sandbox"] = v
	v = base
	v.Fuel = 3
	variants["fuel-3"] = v
	v = base
	v.Fuel = -1
	variants["fuel-none"] = v
	v = base
	v.SiteProfile = siteDoc(10, "h1")
	variants["profiled"] = v
	v = base
	v.SiteProfile = siteDoc(11, "h1")
	variants["profiled-other"] = v

	seen := map[string]string{}
	for name, opt := range variants {
		fp := opt.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision: %q and %q both map to %q", prev, name, fp)
		}
		seen[fp] = name
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	o := DefaultOptions()
	// A multi-program document exercises the canonical rendering: the
	// order programs were assembled in must not leak into the
	// fingerprint.
	o.SiteProfile = siteDoc(7, "hc", "ha", "hb")
	fp := o.Fingerprint()
	for i := 0; i < 50; i++ {
		if got := o.Fingerprint(); got != fp {
			t.Fatalf("fingerprint not deterministic: %q vs %q", got, fp)
		}
	}
	o.SiteProfile = siteDoc(7, "hb", "ha", "hc")
	if got := o.Fingerprint(); got != fp {
		t.Fatalf("program order leaked into fingerprint: %q vs %q", got, fp)
	}
}

// Observation-only and single-run fields must NOT change the
// fingerprint: remark emission never changes decisions (pinned by the
// PR-4 tests), and fault injectors are per-request state the server
// never caches across.
func TestFingerprintIgnoresObservationFields(t *testing.T) {
	a := DefaultOptions()
	b := DefaultOptions()
	b.Remarks = remarks.NewEmitter()
	pt, err := faults.ByName("alloc-fail:1")
	if err != nil {
		t.Fatal(err)
	}
	b.Faults = faults.NewInjector(pt)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("observation fields leaked into fingerprint:\n a=%q\n b=%q",
			a.Fingerprint(), b.Fingerprint())
	}
}
