// Command perfbench is the repository's benchmark: end-to-end and
// per-layer measurements of the ADE compiler, the two engines and the
// adeserved serving path, driven only through their public functions.
//
//	perfbench --workload suite|serve-hot|serve-cold|serve-churn \
//	    --seed N --seconds S --trace 0|1
//
// It prints one human-readable line per metric, then, as its last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run is split into an untraced and a traced half and the metrics
// are the per-layer ones. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// e2eUnits are the end-to-end metrics every workload reports.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"run_ms":           "ms",
	"req_per_s":        "1/s",
	"p50_ms":           "ms",
	"allocs_per_op":    "count",
	"bytes_per_op":     "bytes",
	"model_peak_bytes": "bytes",
}

// extraUnits are end-to-end metrics printed with the end-to-end block
// and reported among the per-layer metrics, not gated: the suite's
// build comparison, the serving capacity, and the latency tail, which
// a few percent of stolen CPU time on a shared virtual machine moves by
// up to 3x (see README.md).
var extraUnits = map[string]string{
	"p99_ms":        "ms",
	"roi_ms":        "ms",
	"base_run_ms":   "ms",
	"compile_ms":    "ms",
	"model_speedup": "x",
	"max_ok_rps":    "1/s",
}

// result is one workload run's output.
type result struct {
	e2e, extra, layer map[string]float64
	attempted, failed int
	errs, notes       []string
	tracer            *tracer
	overheadPct       float64
}

func newResult(setup float64) *result {
	return &result{
		e2e:   map[string]float64{"setup_s": setup},
		extra: map[string]float64{},
		layer: map[string]float64{},
	}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setupRepeats is how many times each workload sets up; setup_s is the
// median, and every repeat must produce the same inputs and counts.
const setupRepeats = 3

func repeatSetup(f func() (string, error)) (float64, error) {
	var times []float64
	var first string
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		digest, err := f()
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == 0 {
			first = digest
		} else if digest != first {
			return 0, fmt.Errorf("set-up is not deterministic: repeat %d differs from the first", i+1)
		}
	}
	return median(times), nil
}

var workloads = map[string]func(seed int64, d time.Duration, traced bool) (*result, error){
	"suite":       suiteWorkload,
	"serve-hot":   func(s int64, d time.Duration, t bool) (*result, error) { return serveWorkload("serve-hot", s, d, t) },
	"serve-cold":  func(s int64, d time.Duration, t bool) (*result, error) { return serveWorkload("serve-cold", s, d, t) },
	"serve-churn": func(s int64, d time.Duration, t bool) (*result, error) { return serveWorkload("serve-churn", s, d, t) },
}

func main() {
	workload := flag.String("workload", "", "suite, serve-hot, serve-cold or serve-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced run with per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span traces (relative to the working directory)")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload suite|serve-hot|serve-cold|serve-churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	printTags(*workload, *seed, *trace)
	steal0, stealOK := cpuSteal()
	res, err := run(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res.tracer != nil {
		path, err := res.tracer.write(*out, fmt.Sprintf("trace-%s-%d.jsonl", *workload, *seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d spans written to %s\n", len(res.tracer.spans), path)
	}
	if steal1, ok := cpuSteal(); ok && stealOK {
		// Time the hypervisor gave this machine's CPUs to other guests:
		// high values mark a run taken on a contended host.
		res.notef("cpu steal during the run: %.1f%% of CPU time", steal1.since(steal0))
	}
	emit(res, *trace == 1)
}

// emit prints the human-readable block and the final JSON line.
func emit(res *result, traced bool) {
	for _, n := range res.notes {
		fmt.Println("note:", n)
	}
	for _, e := range res.errs {
		fmt.Println("failure:", e)
	}
	failedFrac := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Printf("%-22s %14.6g %s\n", "failed_frac", failedFrac, "fraction")
	for _, name := range sortedKeys(e2eUnits) {
		fmt.Printf("%-22s %14.6g %s\n", name, res.e2e[name], e2eUnits[name])
	}
	for _, name := range sortedKeys(extraUnits) {
		if v, ok := res.extra[name]; ok {
			fmt.Printf("%-22s %14.6g %s\n", name, v, extraUnits[name])
		}
	}
	metrics := map[string]any{}
	if traced {
		layer := layerMetrics(res)
		for _, name := range sortedKeys(layer) {
			m := layer[name]
			fmt.Printf("layer %-36s %14.6g %s\n", name, m.Value, m.Unit)
			metrics[name] = m
		}
		fmt.Printf("tracing overhead: %.2f%%\n", res.overheadPct)
	} else {
		for name, unit := range e2eUnits {
			metrics[name] = metric{res.e2e[name], unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON keeps the line valid JSON when a value is not finite: a
// tail made of failed requests is +Inf, reported as the largest float.
func (m metric) MarshalJSON() ([]byte, error) {
	v := m.Value
	switch {
	case math.IsNaN(v):
		v = 0
	case math.IsInf(v, 0):
		v = math.Copysign(math.MaxFloat64, v)
	}
	type plain metric
	return json.Marshal(plain{v, m.Unit})
}

// layerMetrics returns every per-layer metric of a traced run: the
// full list for every workload, 0 where a layer is not on the
// workload's path.
func layerMetrics(res *result) map[string]metric {
	out := map[string]metric{}
	res.layer["trace.overhead_pct"] = res.overheadPct
	for _, l := range layerList() {
		v := res.layer[l.name]
		if x, ok := res.extra[l.name]; ok {
			v = x
		}
		out[l.name] = metric{v, l.unit}
	}
	return out
}

type layerDef struct{ name, unit string }

// layerList is the fixed per-layer metric list (see README.md for
// which end-to-end metric each should move).
func layerList() []layerDef {
	defs := []layerDef{
		{"http.rtt_us", "us"}, {"server.handler_us", "us"}, {"transport_us", "us"},
		{"server.decode_us", "us"}, {"server.exec_ms", "ms"}, {"server.errors", "count"},
		{"cache.hits", "count"}, {"cache.misses", "count"}, {"cache.evictions", "count"}, {"cache.hit_ratio", "ratio"},
		{"store.writes", "count"}, {"store.fsyncs", "count"}, {"store.disk_loads", "count"},
		{"store.write_errors", "count"}, {"store.put_us", "us"}, {"store.get_us", "us"},
		{"parse_us", "us"}, {"ir.verify_us", "us"}, {"ir.hash_us", "us"},
		{"ade_us", "us"}, {"ade.other_us", "us"},
		{"ade.ir_before", "count"}, {"ade.ir_after", "count"}, {"ade.classes", "count"},
		{"ade.static_sites", "count"}, {"ade.rewrites", "count"},
		{"bc.compile_us", "us"}, {"bc.verify_us", "us"}, {"bc.instrs", "count"},
		{"vm.run_us", "us"}, {"interp.run_us", "us"}, {"vm.steps", "count"}, {"vm.ns_per_step", "ns"},
		{"coll.sparse_ops", "count"}, {"coll.dense_ops", "count"},
		{"coll.enc", "count"}, {"coll.dec", "count"}, {"coll.add", "count"},
		{"gc.cycles", "count"}, {"gc.pause_us", "us"}, {"gc.cpu_s", "s"}, {"heap.peak_bytes", "bytes"},
		{"trace.overhead_pct", "%"},
	}
	for _, ph := range adePhases {
		defs = append(defs, layerDef{"ade." + ph + "_us", "us"})
	}
	for i := 1; i < numImpls; i++ {
		defs = append(defs, layerDef{"coll.ops." + implName(i), "count"})
	}
	for _, name := range sortedKeys(extraUnits) {
		defs = append(defs, layerDef{name, extraUnits[name]})
	}
	return defs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printTags prints what a result must be tagged with so numbers from
// different machines are never read as one series.
func printTags(workload string, seed int64, trace int) {
	fmt.Printf("tags: workload=%s seed=%d trace=%d nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s\n",
		workload, seed, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the source commit: $PERFBENCH_COMMIT, else the HEAD of a
// git checkout in the working directory, else "unknown" (the benchmark
// may run from an exported tree).
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		if b, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
			return strings.TrimSpace(string(b))
		}
		return "unknown"
	}
	return ref
}
