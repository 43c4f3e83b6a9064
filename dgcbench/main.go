// Command dgcbench is the repository benchmark: three workloads that each
// load different layers of the active-object runtime and its DGC, driven
// through the public API of internal/active from one process with two
// caller goroutines in a closed loop.
//
//	dgcbench --workload rpc-tcp|dgc-churn|migrate-durable --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the same workload untraced and then traced (wrappers at the
// runtime's plug-in boundaries) and prints the per-layer metrics and the
// tracing overhead. The last line of standard output is the JSON result;
// the line before it records the machine and the workload configuration.
// See README.md for the metric → layer → workload table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/transport"
)

// maxNodes bounds the node identifiers any workload allocates.
const maxNodes = 16

func main() {
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "workload name: rpc-tcp, dgc-churn or migrate-durable")
	flag.Uint64Var(&p.seed, "seed", 1, "workload seed: placement, destinations and payloads derive from it")
	flag.IntVar(&p.seconds, "seconds", 10, "scales the fixed operation count (ops = the workload's rate × seconds)")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&p.tmp, "tmp", ".bench_build", "directory for checkpoint stores")
	flag.Parse()
	p.traced = trace == 1
	w, ok := findWorkload(p.workload)
	if !ok || p.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "dgcbench: bad arguments (workload %q, seconds %d, trace %d)\n", p.workload, p.seconds, trace)
		os.Exit(2)
	}
	res, info, err := execute(w, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgcbench:", err)
		os.Exit(1)
	}
	infoLine, _ := json.Marshal(map[string]any{"info": info})
	fmt.Println(string(infoLine))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgcbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs workload w as p asks and assembles its result.
func execute(w workload, p params) (result, map[string]any, error) {
	info := machine()
	info["workload"], info["seed"], info["seconds"], info["traced"] = w.name, p.seed, p.seconds, p.traced
	info["ttb_ms"], info["tta_ms"] = w.ttb.Milliseconds(), w.tta.Milliseconds()
	info["callers"] = callers
	if !p.traced {
		r, sizes, err := measure(w, p, 3)
		if err != nil {
			return result{}, nil, err
		}
		info["sizes"], info["ops"], info["errors"] = sizes, r.main.ops, r.errs
		info["chunks"], info["setups_s"] = r.series, r.setup
		info["chunk_p50_us"] = r.chunkMedians()
		info["call_p99_us"] = r.latencyUs(&r.call, 0.99)
		return r.result(endToEnd(r)), info, nil
	}
	var failures []string
	if err := parityCheck(); err != nil {
		failures = append(failures, err.Error())
	}
	untraced := p
	untraced.traced = false
	base, _, err := measure(w, untraced, 1)
	if err != nil {
		return result{}, nil, err
	}
	r, sizes, err := measure(w, p, 1)
	if err != nil {
		return result{}, nil, err
	}
	m := perLayer(r, w)
	m["trace.overhead_pct"] = metric{100 * (r.main.cpuUsPerOp()/base.main.cpuUsPerOp() - 1), "%"}
	res := r.result(m)
	res.Attempted += base.attempted.Load() + 1
	res.Failed += base.failed.Load() + int64(len(failures))
	res.Correct = res.Correct && base.incorrect.Load() == 0 && len(failures) == 0
	info["sizes"], info["ops"], info["errors"] = sizes, r.main.ops, append(append(failures, base.errs...), r.errs...)
	return res, info, nil
}

func (r *run) result(m map[string]metric) result {
	return result{Correct: r.incorrect.Load() == 0, Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: m}
}

// measure builds the workload's world setups times (reporting the median
// set-up time), runs the fixed operation count on the last one and its
// teardown, closes it, and runs the workload's probe, if any.
func measure(w workload, p params, setups int) (*run, map[string]any, error) {
	r := newRun(p, w.ttb)
	kindTracer.Store(r.tr)
	defer kindTracer.Store(nil)
	r.ops = w.opsPerSec * p.seconds
	r.warm = max(r.ops/10, 1)
	if p.tiny {
		r.ops, r.warm = 24, 4
	}
	var wd *world
	for k := 0; k < setups; k++ {
		r.mon = newMonitor(r)
		t0 := time.Now()
		var err error
		if wd, err = w.build(r, w); err != nil {
			return nil, nil, fmt.Errorf("%s: build: %w", w.name, err)
		}
		r.loop(0, r.warm, wd.op)
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if k < setups-1 {
			r.mon.awaitCollected(r, collectBound)
			wd.close()
		}
	}
	closeWorld := sync.OnceFunc(wd.close)
	defer closeWorld()
	r.resetSamples()
	runtime.GC()
	from := takeSnapshot(wd.env)
	var edges edgeSampler
	if r.tr != nil {
		edges.start(r.tr, w.ttb)
	}
	r.mon.setPhase("the measured loop")
	r.chunkedLoop(wd.env, r.warm, r.ops, wd.op, true)
	r.main = window{from: from, to: takeSnapshot(wd.env), ops: r.ops}
	r.mon.setPhase("teardown and probe")
	if r.tr != nil {
		r.traceMain = r.tr.snapshotCounts()
		r.meanEdges = edges.stop()
	}
	// Quiescence: every activity the loop released is collected, and the
	// local heaps hold what the live set needs. Node identifiers are
	// allocated from 1 upward; a crashed and recovered node keeps its
	// identifier.
	r.mon.awaitCollected(r, collectBound)
	var cells, roots int
	for id := ids.NodeID(1); id <= maxNodes; id++ {
		if n := wd.env.Node(id); n != nil {
			cells += n.Heap().NumCells()
			roots += n.Heap().NumRoots()
		}
	}
	live := max(wd.env.LiveActivities(), 1)
	r.cellsPerLive, r.rootsPerLive = float64(cells)/float64(live), float64(roots)/float64(live)
	if wd.after != nil {
		if err := wd.after(); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	r.heapLiveEnd = takeSnapshot(wd.env).float(mHeapLive)
	if wd.probe != nil {
		closeWorld()
		if err := wd.probe(); err != nil {
			return nil, nil, fmt.Errorf("%s: probe: %w", w.name, err)
		}
	}
	return r, wd.sizes, nil
}

// recoverQuantile is the quantile of the per-restart recovery times that
// recover_us_per_activity reports. A recovery takes a few milliseconds,
// and whether a Go collection, a beat or another tenant's process lands
// inside it sets most of its time: one run's restarts spread over 2–11
// µs per activity and their median moved by a third from run to run,
// while their fastest tenth held within a tenth. The low quantile is the
// cost of recovery itself.
const recoverQuantile = 0.1

func us(ns float64) float64 { return ns / float64(time.Microsecond) }

// endToEnd is what a user of the runtime sees (tracing off).
func endToEnd(r *run) map[string]metric {
	collect := r.mon.collectSamples()
	return map[string]metric{
		"setup_s":                 {median(r.setup), "s"},
		"ops_per_s":               {r.series.median("ops_per_s"), "1/s"},
		"cpu_us_per_op":           {r.series.median("cpu_us_per_op"), "us"},
		"alloc_kb_per_op":         {r.series.median("alloc_kb_per_op"), "KiB"},
		"dgc_kb_per_s":            {r.series.median("dgc_kb_per_s"), "KiB/s"},
		"call_p50_us":             {r.latencyUs(&r.call, 0.5), "us"},
		"call_p90_us":             {r.latencyUs(&r.call, 0.9), "us"},
		"bcast_p50_us":            {r.latencyUs(&r.bcast, 0.5), "us"},
		"collect_p50_beats":       {median(collect), "beats"},
		"collect_p99_beats":       {quantile(collect, 0.99), "beats"},
		"migrate_p50_us":          {r.latencyUs(&r.migrate, 0.5), "us"},
		"stale_call_p50_us":       {r.latencyUs(&r.stale, 0.5), "us"},
		"recover_us_per_activity": {us(r.recoverPer.quantile(recoverQuantile)), "us"},
	}
}

// perLayer is what the traced run attributes to each layer.
func perLayer(r *run, w workload) map[string]metric {
	t, c := r.tr, r.traceMain
	ops := float64(r.main.ops)
	m := map[string]metric{}
	for name, v := range wireMetrics(w.name) {
		m[name] = v
	}
	m["net.send_us_p50"] = metric{us(t.send.snapshot().quantile(0.5)), "us"}
	m["net.send_us_p99"] = metric{us(t.send.snapshot().quantile(0.99)), "us"}
	m["net.call_us_p50"] = metric{us(t.call.snapshot().quantile(0.5)), "us"}
	m["net.items_per_batch"] = metric{float64(c.items) / math.Max(float64(c.frames), 1), "count"}
	for _, cl := range []struct {
		name  string
		class transport.Class
	}{{"app", transport.ClassApp}, {"dgc", transport.ClassDGC}, {"future", transport.ClassFuture}} {
		m["net."+cl.name+".msgs_per_op"] = metric{float64(c.msgs[cl.class]) / ops, "count"}
		m["net."+cl.name+".bytes_per_op"] = metric{float64(c.bytes[cl.class]) / ops, "B"}
	}
	m["active.recv_oneway_us_p50"] = metric{us(t.recvOneWay.snapshot().quantile(0.5)), "us"}
	m["active.recv_call_us_p50"] = metric{us(t.recvCall.snapshot().quantile(0.5)), "us"}
	m["active.serve_us_p50"] = metric{us(t.serve.snapshot().quantile(0.5)), "us"}
	m["active.req_path_us_p50"] = metric{us(r.spans.reqPath.snapshot().quantile(0.5)), "us"}
	m["active.reply_path_us_p50"] = metric{us(r.spans.replyPath.snapshot().quantile(0.5)), "us"}
	m["active.self_us_p50"] = metric{us(r.spans.self.snapshot().quantile(0.5)), "us"}
	beats := r.main.seconds() / w.ttb.Seconds()
	m["dgc.recv_us_p50"] = metric{us(t.dgcRecv.snapshot().quantile(0.5)), "us"}
	m["dgc.busy_pct"] = metric{100 * float64(c.dgcBusyNs) / float64(r.main.to.wall.Sub(r.main.from.wall)), "%"}
	m["dgc.msgs_per_edge_beat"] = metric{float64(c.dgcCalls) / math.Max(r.meanEdges*beats, 1), "count"}
	m["dgc.events_per_collected"] = metric{float64(t.events.Load()) / math.Max(float64(t.collected.Load()), 1), "count"}
	m["dgc.cyclic_share"] = metric{float64(t.cyclic.Load()) / math.Max(float64(t.collected.Load()), 1), "ratio"}
	m["localgc.cells_per_live"] = metric{r.cellsPerLive, "count"}
	m["localgc.roots_per_live"] = metric{r.rootsPerLive, "count"}
	m["location.msgs_per_stale_call"] = metric{float64(t.locationMsgs.Load()) / math.Max(float64(r.stale.len()), 1), "count"}
	m["store.put_us_p50"] = metric{us(t.storePut.snapshot().quantile(0.5)), "us"}
	m["store.put_us_p99"] = metric{us(t.storePut.snapshot().quantile(0.99)), "us"}
	m["store.put_bytes_p50"] = metric{t.storePutBytes.snapshot().quantile(0.5), "B"}
	m["store.puts_per_op"] = metric{float64(t.storePuts.Load()) / math.Max(float64(r.mobileOps.Load()), 1), "count"}
	m["store.load_ms"] = metric{t.storeLoad.snapshot().quantile(0.5) / float64(time.Millisecond), "ms"}
	m["go.gc_cpu_pct"] = metric{r.main.gcCPUPct(), "%"}
	m["go.gc_cycles_per_kop"] = metric{r.main.gcCyclesPerKop(), "count"}
	m["go.sched_lat_p50_us"] = metric{r.main.schedLatUs(0.5), "us"}
	m["go.sched_lat_p99_us"] = metric{r.main.schedLatUs(0.99), "us"}
	m["go.heap_live_kb_end"] = metric{r.heapLiveEnd / 1024, "KiB"}
	return m
}
