package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/active"
	"repro/internal/transport"
)

// quantile returns the q-quantile of vals (nearest rank on a sorted
// copy), or 0 for no samples.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// runtime/metrics names read at the phase boundaries.
const (
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU  = "/cpu/classes/total:cpu-seconds"
	mGCCycles  = "/gc/cycles/total:gc-cycles"
	mSchedLat  = "/sched/latencies:seconds"
	mHeapLive  = "/gc/heap/live:bytes"
	mHeapAlloc = "/gc/heap/allocs:bytes"
)

// snapshot is the process state at one phase boundary.
type snapshot struct {
	wall    time.Time
	cpu     time.Duration // user + sys, from getrusage
	samples []metrics.Sample
	net     transport.Counters
}

func takeSnapshot(env *active.Env) snapshot {
	s := []metrics.Sample{{Name: mGCCPU}, {Name: mTotalCPU}, {Name: mGCCycles},
		{Name: mSchedLat}, {Name: mHeapLive}, {Name: mHeapAlloc}}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return snapshot{wall: time.Now(), cpu: cpu, samples: s, net: env.Network().Snapshot()}
}

func (s snapshot) value(name string) metrics.Value {
	for _, m := range s.samples {
		if m.Name == name {
			return m.Value
		}
	}
	panic("dgcbench: unread runtime metric " + name)
}

func (s snapshot) float(name string) float64 {
	v := s.value(name)
	if v.Kind() == metrics.KindUint64 {
		return float64(v.Uint64())
	}
	return v.Float64()
}

// window is the measured phase between two snapshots.
type window struct {
	from, to snapshot
	ops      int
}

func (w window) seconds() float64 { return w.to.wall.Sub(w.from.wall).Seconds() }

func (w window) delta(name string) float64 { return w.to.float(name) - w.from.float(name) }

func (w window) opsPerSec() float64 { return float64(w.ops) / w.seconds() }

func (w window) cpuUsPerOp() float64 {
	return float64(w.to.cpu-w.from.cpu) / float64(time.Microsecond) / float64(w.ops)
}

func (w window) allocKBPerOp() float64 { return w.delta(mHeapAlloc) / 1024 / float64(w.ops) }

func (w window) classBytes(c transport.Class) float64 {
	return float64(w.to.net.Bytes[c] - w.from.net.Bytes[c])
}

func (w window) dgcKBPerSec() float64 { return w.classBytes(transport.ClassDGC) / 1024 / w.seconds() }

func (w window) gcCPUPct() float64 {
	total := w.delta(mTotalCPU)
	if total <= 0 {
		return 0
	}
	return 100 * w.delta(mGCCPU) / total
}

func (w window) gcCyclesPerKop() float64 { return 1000 * w.delta(mGCCycles) / float64(w.ops) }

// schedLatUs returns the q-quantile of goroutine scheduling latency over
// the window, in microseconds, from the runtime's histogram.
func (w window) schedLatUs(q float64) float64 {
	a, b := w.from.value(mSchedLat).Float64Histogram(), w.to.value(mSchedLat).Float64Histogram()
	var total uint64
	counts := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// machine describes where a run happened; every output records it.
func machine() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
