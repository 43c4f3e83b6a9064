package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/active"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/wire"
)

// callers is the number of load-generating goroutines. A lone sequential
// caller is bimodal across runs on loopback TCP; two are not.
const callers = 2

// opTimeout bounds every call the benchmark waits for; a timeout is a
// failed operation.
const opTimeout = 10 * time.Second

// params are the command-line inputs of one run.
type params struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	tiny     bool   // smoke-test sizes
	tmp      string // where checkpoint stores live
}

// run is the state of one measured workload run: one environment, its
// DGC monitor, its samples and its correctness tally.
type run struct {
	p   params
	ttb time.Duration
	tr  *tracer // nil when untraced
	mon *monitor

	seq atomic.Int64 // request sequence numbers, unique per run

	ops, warm int       // measured operations, and warm-up operations before them
	setup     []float64 // seconds per world set-up

	attempted, failed atomic.Int64
	incorrect         atomic.Int64 // failures of output correctness or DGC safety
	mobileOps         atomic.Int64 // state-moving operations, for per-op store counts
	errMu             sync.Mutex
	errs              []string

	// Latency samples in nanoseconds.
	call, bcast, migrate, stale recorder
	recoverPer                  samples // ns per restored activity, one per restart
	spans                       opSpans
	series                      series // one value per chunk and metric
	chunkHists                  map[*recorder][]*hist

	main window // the whole measured op loop

	// Traced-run figures taken at the end of the measured loop and after
	// the teardown.
	traceMain                  countSnapshot
	meanEdges                  float64
	cellsPerLive, rootsPerLive float64
	heapLiveEnd                float64
}

func newRun(p params, ttb time.Duration) *run {
	r := &run{p: p, ttb: ttb, series: series{}, chunkHists: map[*recorder][]*hist{}}
	if p.traced {
		r.tr = &tracer{}
	}
	return r
}

func newMonitor(r *run) *monitor {
	m := &monitor{ttb: r.ttb, tr: r.tr, held: map[ids.ActivityID]bool{},
		released: map[ids.ActivityID]time.Time{}, relPhase: map[ids.ActivityID]*string{}}
	m.setPhase("set-up")
	return m
}

func (m *monitor) setPhase(p string) { m.phase.Store(&p) }

// resetSamples drops what set-up and warm-up recorded, so the figures
// describe the measured loop and what follows it.
func (r *run) resetSamples() {
	r.recoverPer.reset()
	for _, rec := range []*recorder{&r.call, &r.bcast, &r.migrate, &r.stale,
		&r.spans.reqPath, &r.spans.replyPath, &r.spans.self} {
		rec.reset()
	}
	r.mobileOps.Store(0)
	r.mon.mu.Lock()
	r.mon.collect, r.mon.checked = nil, 0
	r.mon.mu.Unlock()
	if r.tr != nil {
		r.tr.reset()
	}
}

// samples keeps a few hundred values exactly, where a histogram bucket
// would round a low quantile to the same value run after run.
type samples struct {
	mu   sync.Mutex
	vals []float64
}

func (s *samples) add(v float64) {
	s.mu.Lock()
	s.vals = append(s.vals, v)
	s.mu.Unlock()
}

func (s *samples) reset() {
	s.mu.Lock()
	s.vals = nil
	s.mu.Unlock()
}

func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(s.vals, q)
}

// fail records one failed operation or check that makes the run
// incorrect: a wrong or missing reply, a lost identity, a safety
// violation.
func (r *run) fail(format string, args ...any) {
	r.incorrect.Add(1)
	r.miss(format, args...)
}

// miss records one failed check that leaves every output correct: an
// activity the DGC did not collect within the completeness bound. It
// counts as failed; the first few failures are kept for the report.
func (r *run) miss(format string, args ...any) {
	r.failed.Add(1)
	r.errMu.Lock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
	r.errMu.Unlock()
}

// nextSeq returns a fresh request sequence number.
func (r *run) nextSeq() int64 { return r.seq.Add(1) }

// behavior returns b, wrapped for timing in a traced run.
func (r *run) behavior(b active.Behavior) active.Behavior {
	if r.tr == nil {
		return b
	}
	return tracedBehavior{b: b, t: r.tr}
}

// timedCall runs one typed call, records its latency (and, traced, its
// span split) and checks the echoed sequence number.
func timedCall[Req, Resp any](r *run, rec *recorder, stub active.Stub[Req, Resp], req Req, seq int64, check func(Resp) bool) {
	r.attempted.Add(1)
	t0 := time.Now()
	resp, err := stub.CallSync(req, opTimeout)
	t1 := time.Now()
	if err != nil {
		r.fail("%s seq %d: %v", stub.Method(), seq, err)
		return
	}
	rec.add(float64(t1.Sub(t0)))
	if r.tr != nil {
		r.spans.note(r.tr, seq, t0, t1)
	}
	if !check(resp) {
		r.fail("%s seq %d: mismatched reply %+v", stub.Method(), seq, resp)
	}
}

// chunks is how many consecutive slices a measured loop is cut into.
// Throughput and cost are reported as the median of their per-chunk
// values, and so is a latency quantile when every chunk holds enough
// samples for it: a stall that hits one slice then moves the median
// less than it moves a figure over the whole loop.
const chunks = 7

// series holds one value per chunk for each metric.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func (s series) median(name string) float64 { return median(s[name]) }

// chunkedLoop runs ops operations as consecutive chunks, keeping each
// chunk's samples of every latency recorder and — for the measured loop
// — the throughput and cost figures of the chunk's window.
func (r *run) chunkedLoop(env *active.Env, first, ops int, op func(i int, rng *rand.Rand), measured bool) {
	per := max(ops/chunks, 1)
	for c := 0; c < chunks && c*per < ops; c++ {
		n := per
		if c == chunks-1 {
			n = ops - c*per
		}
		starts := map[*recorder]*hist{}
		for _, rec := range r.latencies() {
			starts[rec] = rec.snapshot()
		}
		from := takeSnapshot(env)
		r.loop(first+c*per, n, op)
		w := window{from: from, to: takeSnapshot(env), ops: n}
		if measured {
			r.series.add("ops_per_s", w.opsPerSec())
			r.series.add("cpu_us_per_op", w.cpuUsPerOp())
			r.series.add("alloc_kb_per_op", w.allocKBPerOp())
			r.series.add("dgc_kb_per_s", w.dgcKBPerSec())
		}
		for _, rec := range r.latencies() {
			if d := rec.snapshot().minus(starts[rec]); d.total() > 0 {
				r.chunkHists[rec] = append(r.chunkHists[rec], d)
			}
		}
	}
}

// chunkMedians returns each latency's per-chunk medians in microseconds,
// for the record of how steady a run was.
func (r *run) chunkMedians() map[string][]float64 {
	names := [...]string{"call", "bcast", "migrate", "stale"} // as in latencies
	out := map[string][]float64{}
	for i, rec := range r.latencies() {
		for _, h := range r.chunkHists[rec] {
			out[names[i]] = append(out[names[i]], us(h.quantile(0.5)))
		}
	}
	return out
}

func (r *run) latencies() []*recorder { return []*recorder{&r.call, &r.bcast, &r.migrate, &r.stale} }

// latencyUs returns rec's q-quantile in microseconds. Consecutive chunks
// are merged into groups of at least 100 samples and ten beyond the
// quantile; with three groups or more the figure is the midmean of the
// groups' quantiles, so a stall confined to part of the run moves it
// little. Otherwise it is the quantile of all samples.
func (r *run) latencyUs(rec *recorder, q float64) float64 {
	need := max(100, uint64(math.Ceil(10/(1-q))))
	var groups []*hist
	acc := new(hist)
	for _, h := range r.chunkHists[rec] {
		acc.add(h)
		if acc.total() >= need {
			groups = append(groups, acc)
			acc = new(hist)
		}
	}
	if len(groups) < 3 {
		return us(rec.snapshot().quantile(q))
	}
	groups[len(groups)-1].add(acc) // a short tail joins the last group
	perGroup := make([]float64, len(groups))
	for i, g := range groups {
		perGroup[i] = g.quantile(q)
	}
	return us(midmean(perGroup))
}

// midmean returns the mean of vals without their lowest and highest
// quarter, or their median for fewer than five. A quantile read from the
// histogram is a bucket position, so the median of a few of them repeats
// from run to run to the last digit; their midmean does not.
func midmean(vals []float64) float64 {
	if len(vals) < 5 {
		return median(vals)
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// loop runs ops operations from the two callers in a closed loop: each
// caller issues its next operation when the previous one returns. The
// random choices of operation i come from (seed, i) alone, so a seed
// fixes the whole input sequence whichever caller draws it.
func (r *run) loop(first, ops int, op func(i int, rng *rand.Rand)) {
	var next atomic.Int64
	next.Store(int64(first))
	end := int64(first + ops)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= end {
					return
				}
				op(int(i), rand.New(rand.NewPCG(r.p.seed, uint64(i))))
			}
		}()
	}
	wg.Wait()
}

// monitor checks the DGC's two guarantees through Config.OnEvent.
// Safety: an activity the benchmark still holds must never terminate.
// Completeness: every activity it released must terminate, and the time
// from release to termination, in beats, is the collection sample.
type monitor struct {
	ttb time.Duration
	tr  *tracer

	phase atomic.Pointer[string] // reported with violations

	mu          sync.Mutex
	held        map[ids.ActivityID]bool
	released    map[ids.ActivityID]time.Time
	relPhase    map[ids.ActivityID]*string // phase of each release, for reports
	collect     []float64                  // beats from release to termination
	checked     int                        // collect samples awaitCollected has checked
	violations  []string
	outstanding atomic.Int64
}

func (m *monitor) onEvent(ev core.Event) {
	if m.tr != nil {
		m.tr.onEvent(ev)
	}
	if ev.Kind != core.EventTerminated {
		return
	}
	m.mu.Lock()
	if m.held[ev.Activity] {
		m.violations = append(m.violations, fmt.Sprintf("held activity %v terminated (%v) during %s", ev.Activity, ev.Reason, *m.phase.Load()))
	} else if t, ok := m.released[ev.Activity]; ok {
		delete(m.released, ev.Activity)
		delete(m.relPhase, ev.Activity)
		m.collect = append(m.collect, float64(ev.Time.Sub(t))/float64(m.ttb))
		m.outstanding.Add(-1)
	}
	m.mu.Unlock()
}

func (m *monitor) hold(id ids.ActivityID) {
	m.mu.Lock()
	m.held[id] = true
	m.mu.Unlock()
}

// unhold forgets id without expecting its collection (a migrated-away
// identity: its forwarder is the runtime's to reclaim).
func (m *monitor) unhold(id ids.ActivityID) {
	m.mu.Lock()
	delete(m.held, id)
	m.mu.Unlock()
}

// release moves ids from held to awaiting collection. Call it before
// dropping the handles, so a termination can never precede the record.
func (m *monitor) release(idList ...ids.ActivityID) {
	now, phase := time.Now(), m.phase.Load()
	m.mu.Lock()
	for _, id := range idList {
		delete(m.held, id)
		m.released[id] = now
		m.relPhase[id] = phase
	}
	m.mu.Unlock()
	m.outstanding.Add(int64(len(idList)))
}

// awaitCollected waits until every released activity has terminated, or
// until bound beats have passed since the last release; stragglers and
// samples over the bound fail the completeness check.
func (m *monitor) awaitCollected(r *run, bound float64) {
	deadline := time.Now().Add(time.Duration(bound * float64(m.ttb)))
	for m.outstanding.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(m.ttb / 4)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Each miss is reported once: a straggler is forgotten, and a later
	// call checks only the samples taken since.
	for id, t := range m.released {
		r.miss("completeness: activity %v released during %s not collected after %.0f beats",
			id, *m.relPhase[id], float64(time.Since(t))/float64(m.ttb))
		delete(m.released, id)
		delete(m.relPhase, id)
		m.outstanding.Add(-1)
	}
	for _, b := range m.collect[m.checked:] {
		if b > bound {
			r.miss("completeness: collection took %.1f beats (bound %.0f)", b, bound)
		}
	}
	m.checked = len(m.collect)
	for _, v := range m.violations {
		r.fail("safety: %s", v)
	}
	m.violations = nil
}

func (m *monitor) collectSamples() []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]float64(nil), m.collect...)
}

// refOf returns the activity a handle targets.
func refOf(h *active.Handle) ids.ActivityID {
	id, _ := h.Ref().AsRef()
	return id
}

// remoteHandle re-anchors a freshly spawned activity's handle on the
// caller node, so every call to it crosses the transport, and drops the
// spawning node's own handle.
func remoteHandle(caller *active.Node, local *active.Handle) (*active.Handle, error) {
	h, err := caller.HandleFor(local.Ref())
	local.Release()
	return h, err
}

// Wire shapes of the three workloads.
type echoReq struct {
	Seq     int64  `wire:"seq"`
	Payload []byte `wire:"payload"`
}

type echoResp struct {
	Seq  int64 `wire:"seq"`
	Echo int64 `wire:"echo"`
}

type linkReq struct {
	Seq  int64      `wire:"seq"`
	Next wire.Value `wire:"next"`
}

func echoService() *active.Service {
	return active.NewService(
		active.Method("echo", func(_ *active.Context, req echoReq) (echoResp, error) {
			return echoResp{Seq: req.Seq, Echo: int64(len(req.Payload))}, nil
		}),
		active.Method("ping", func(_ *active.Context, v int64) (int64, error) {
			return v, nil
		}))
}

// cellService stores the reference it is handed: the link that turns
// activities into rings and chains of distributed garbage.
func cellService() *active.Service {
	return active.NewService(
		active.Method("link", func(ctx *active.Context, req linkReq) (int64, error) {
			ctx.Store("next", req.Next)
			return req.Seq, nil
		}))
}

// echoKind is the registered (migratable, durable) behavior kind.
// Registration is process-global, so the factory consults the current
// run's tracer.
const echoKind = "dgcbench/echo"

var kindTracer atomic.Pointer[tracer]

var registerKind = sync.OnceFunc(func() {
	active.RegisterBehavior(echoKind, func() active.Behavior {
		if t := kindTracer.Load(); t != nil {
			return tracedBehavior{b: echoService(), t: t}
		}
		return echoService()
	})
})

func payload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.UintN(256))
	}
	return b
}
