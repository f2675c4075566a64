package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile is the percentile the benchmark reports as its tail:
// p99 when at least ten samples lie beyond it, else the highest
// percentile that still has ten samples beyond it.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return math.Min(0.99, 1-10/float64(n))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// rtSnap is a snapshot of the Go runtime counters the benchmark
// reports: allocations (for allocs/bytes per op) and GC work.
type rtSnap struct {
	mallocs, bytes uint64
	numGC          uint32
	pauseNs        uint64
	gcCPU          float64
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readRT() rtSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	metrics.Read(gcCPUSample)
	var cpu float64
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		cpu = gcCPUSample[0].Value.Float64()
	}
	return rtSnap{mallocs: m.Mallocs, bytes: m.TotalAlloc, numGC: m.NumGC, pauseNs: m.PauseTotalNs, gcCPU: cpu}
}

// rtDelta accumulates runtime counter deltas over timed regions.
type rtDelta struct {
	mallocs, bytes uint64
	gcCycles       uint64
	pauseNs        uint64
	gcCPU          float64
	peakHeap       uint64
}

func (d *rtDelta) add(a, b rtSnap) {
	d.mallocs += b.mallocs - a.mallocs
	d.bytes += b.bytes - a.bytes
	d.gcCycles += uint64(b.numGC - a.numGC)
	d.pauseNs += b.pauseNs - a.pauseNs
	d.gcCPU += b.gcCPU - a.gcCPU
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

// sampleHeap folds the current live-plus-unswept heap object bytes
// into the peak.
func (d *rtDelta) sampleHeap() {
	metrics.Read(heapSample)
	if heapSample[0].Value.Kind() == metrics.KindUint64 {
		if v := heapSample[0].Value.Uint64(); v > d.peakHeap {
			d.peakHeap = v
		}
	}
}

// rtMetrics renders the Go runtime per-layer metrics.
func (d *rtDelta) rtMetrics(out map[string]float64) {
	out["gc.cycles"] = float64(d.gcCycles)
	out["gc.pause_us"] = float64(d.pauseNs) / 1e3
	out["gc.cpu_s"] = d.gcCPU
	out["heap.peak_bytes"] = float64(d.peakHeap)
}

// cpuTimes is the machine-wide CPU time split of /proc/stat.
type cpuTimes struct{ steal, total uint64 }

func cpuSteal() (cpuTimes, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t, true
}

// since is the steal share (percent) of the CPU time elapsed after a.
func (t cpuTimes) since(a cpuTimes) float64 {
	if t.total == a.total {
		return 0
	}
	return 100 * float64(t.steal-a.steal) / float64(t.total-a.total)
}

// quietHalf returns the indices of the ceil(n/2) entries with the least
// stolen CPU time, in their original order, or every index when the
// machine has no steal accounting. On a shared virtual machine a
// neighbour's load shows up as steal and slows every time metric at
// once; taking the end-to-end figures from the quieter half of a run's
// rounds keeps that load out of the comparison between commits.
func quietHalf(steal []float64, ok bool) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	if !ok {
		return idx
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:(len(idx)+1)/2]
	sort.Ints(idx)
	return idx
}
