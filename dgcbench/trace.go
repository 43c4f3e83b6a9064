package main

// Tracing wrappers. The traced run installs them at the runtime's
// existing plug-in boundaries — transport.Transport, its Endpoints and
// Handlers, store.Store and the served Behavior — and times every call
// that crosses one. Each wrapper is a pure pass-through: it forwards
// every method, and every optional extension the wrapped value has
// (transport.BatchSender, transport.ProcessCaller), so the runtime takes
// the same code paths traced as untraced. parityCheck proves it.

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/active"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/location"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Envelope kind bytes the location metric counts (WIRE.md §3, §7, §9):
// a plain request and the redirect notice a forwarder sends back.
const (
	tagRequest  byte = 1
	tagRedirect byte = 4
)

// classCounts counts messages and payload bytes per traffic class, with
// the same rules as transport.CounterSet: a call counts its request and
// its response.
type classCounts struct {
	msgs  [transport.NumClasses + 1]atomic.Int64
	bytes [transport.NumClasses + 1]atomic.Int64
}

func (c *classCounts) add(class transport.Class, size int) {
	if class == 0 || class > transport.NumClasses {
		return
	}
	c.msgs[class].Add(1)
	c.bytes[class].Add(int64(size))
}

// servedSpan is the serve interval of one request, keyed by its Seq.
type servedSpan struct{ start, end time.Time }

// tracer collects the spans and counts of one traced run.
type tracer struct {
	caller ids.NodeID // the load-generating node; set before any traffic

	counts       classCounts
	frames       atomic.Int64 // Send + SendBatch calls
	items        atomic.Int64 // one-way messages inside those frames
	locationMsgs atomic.Int64 // redirects, directory traffic, forwarded requests

	send, call           recorder
	recvOneWay, recvCall recorder
	dgcRecv              recorder
	dgcBusyNs            atomic.Int64
	serve                recorder
	spans                sync.Map // Seq → servedSpan

	storePut, storePutBytes, storeLoad recorder
	storePuts                          atomic.Int64

	dgcCalls                  atomic.Int64 // DGC exchanges sent
	events, collected, cyclic atomic.Int64

	edgeMu  sync.Mutex
	edgeOut map[ids.ActivityID]int // live referenced edges per activity
	edges   atomic.Int64           // their sum
}

// onEvent counts DGC trace events; it runs under collector locks.
func (t *tracer) onEvent(ev core.Event) {
	t.events.Add(1)
	switch ev.Kind {
	case core.EventReferencedAdded:
		t.addEdges(ev.Activity, 1)
	case core.EventReferencedLost:
		t.addEdges(ev.Activity, -1)
	case core.EventTerminated:
		t.collected.Add(1)
		if ev.Reason == core.ReasonCyclic || ev.Reason == core.ReasonNotified {
			t.cyclic.Add(1)
		}
		// A terminated activity's remaining edges vanish without events.
		t.edgeMu.Lock()
		n := t.edgeOut[ev.Activity]
		delete(t.edgeOut, ev.Activity)
		t.edgeMu.Unlock()
		t.edges.Add(int64(-n))
	}
}

func (t *tracer) addEdges(a ids.ActivityID, d int) {
	t.edgeMu.Lock()
	if t.edgeOut == nil {
		t.edgeOut = make(map[ids.ActivityID]int)
	}
	t.edgeOut[a] += d
	t.edgeMu.Unlock()
	t.edges.Add(int64(d))
}

// noteLocation counts one outbound one-way message if it is location
// traffic: a redirect, a directory announce, or a request re-sent by a
// node other than the load generator (a forwarder relaying a stale call).
func (t *tracer) noteLocation(src ids.NodeID, class transport.Class, payload []byte) {
	if class != transport.ClassApp || len(payload) == 0 {
		return
	}
	switch payload[0] {
	case tagRedirect, location.TagAnnounce:
		t.locationMsgs.Add(1)
	case tagRequest:
		if src != t.caller {
			t.locationMsgs.Add(1)
		}
	}
}

// wrapTransport returns tr behind the tracer, keeping ProcessCaller when
// tr has it.
func (t *tracer) wrapTransport(tr transport.Transport) transport.Transport {
	base := &tracedTransport{Transport: tr, t: t}
	if pc, ok := tr.(transport.ProcessCaller); ok {
		return &tracedProcessTransport{tracedTransport: base, pc: pc}
	}
	return base
}

type tracedTransport struct {
	transport.Transport
	t *tracer
}

func (tt *tracedTransport) Register(node ids.NodeID, h transport.Handler) transport.Endpoint {
	ep := tt.Transport.Register(node, &tracedHandler{h: h, t: tt.t})
	base := &tracedEndpoint{ep: ep, t: tt.t}
	if bs, ok := ep.(transport.BatchSender); ok {
		return &tracedBatchEndpoint{tracedEndpoint: base, bs: bs}
	}
	return base
}

type tracedProcessTransport struct {
	*tracedTransport
	pc transport.ProcessCaller
}

func (tp *tracedProcessTransport) Addr() string { return tp.pc.Addr() }

func (tp *tracedProcessTransport) CallAddr(addr string, class transport.Class, payload []byte) ([]byte, error) {
	return tp.pc.CallAddr(addr, class, payload)
}

func (tp *tracedProcessTransport) SetProcessHandler(h transport.Handler) {
	tp.pc.SetProcessHandler(&tracedHandler{h: h, t: tp.t})
}

func (tp *tracedProcessTransport) AddPeer(node ids.NodeID, addr string) { tp.pc.AddPeer(node, addr) }

func (tp *tracedProcessTransport) RemovePeer(node ids.NodeID) { tp.pc.RemovePeer(node) }

type tracedEndpoint struct {
	ep transport.Endpoint
	t  *tracer
}

func (te *tracedEndpoint) Node() ids.NodeID { return te.ep.Node() }

func (te *tracedEndpoint) Send(dst ids.NodeID, class transport.Class, payload []byte) error {
	te.t.counts.add(class, len(payload))
	te.t.frames.Add(1)
	te.t.items.Add(1)
	te.t.noteLocation(te.ep.Node(), class, payload)
	t0 := time.Now()
	err := te.ep.Send(dst, class, payload)
	te.t.send.since(t0)
	return err
}

func (te *tracedEndpoint) Call(dst ids.NodeID, class transport.Class, payload []byte) ([]byte, error) {
	te.t.counts.add(class, len(payload))
	if class == transport.ClassApp && len(payload) > 0 && payload[0] == location.TagQuery {
		te.t.locationMsgs.Add(1)
	}
	if class == transport.ClassDGC {
		te.t.dgcCalls.Add(1)
	}
	t0 := time.Now()
	resp, err := te.ep.Call(dst, class, payload)
	te.t.call.since(t0)
	if err == nil {
		te.t.counts.add(class, len(resp))
	}
	return resp, err
}

type tracedBatchEndpoint struct {
	*tracedEndpoint
	bs transport.BatchSender
}

func (tb *tracedBatchEndpoint) SendBatch(dst ids.NodeID, items []transport.BatchItem) error {
	src := tb.ep.Node()
	for _, it := range items {
		tb.t.counts.add(it.Class, len(it.Payload))
		tb.t.noteLocation(src, it.Class, it.Payload)
	}
	tb.t.frames.Add(1)
	tb.t.items.Add(int64(len(items)))
	t0 := time.Now()
	err := tb.bs.SendBatch(dst, items)
	tb.t.send.since(t0)
	return err
}

type tracedHandler struct {
	h transport.Handler
	t *tracer
}

func (th *tracedHandler) HandleOneWay(from ids.NodeID, class transport.Class, payload []byte) {
	t0 := time.Now()
	th.h.HandleOneWay(from, class, payload)
	if class == transport.ClassDGC {
		th.t.dgcBusyNs.Add(int64(time.Since(t0)))
		return
	}
	th.t.recvOneWay.since(t0)
}

func (th *tracedHandler) HandleCall(from ids.NodeID, class transport.Class, payload []byte) []byte {
	t0 := time.Now()
	resp := th.h.HandleCall(from, class, payload)
	d := time.Since(t0)
	switch class {
	case transport.ClassDGC:
		th.t.dgcRecv.add(float64(d))
		th.t.dgcBusyNs.Add(int64(d))
	case transport.ClassApp:
		th.t.recvCall.add(float64(d))
	}
	return resp
}

// tracedStore times Put and Load; Delete and Close pass straight through.
type tracedStore struct {
	store.Store
	t *tracer
}

func (ts tracedStore) Put(id ids.ActivityID, payload []byte) error {
	t0 := time.Now()
	err := ts.Store.Put(id, payload)
	ts.t.storePut.since(t0)
	ts.t.storePutBytes.add(float64(len(payload)))
	ts.t.storePuts.Add(1)
	return err
}

func (ts tracedStore) Load() (map[ids.ActivityID][]byte, error) {
	t0 := time.Now()
	m, err := ts.Store.Load()
	ts.t.storeLoad.since(t0)
	return m, err
}

// tracedBehavior times Serve and remembers the serve interval of every
// request that carries a Seq, so the caller can split its op into the
// path before the serve and the path after it.
type tracedBehavior struct {
	b active.Behavior
	t *tracer
}

func (tb tracedBehavior) Serve(ctx *active.Context, method string, args wire.Value) (wire.Value, error) {
	t0 := time.Now()
	v, err := tb.b.Serve(ctx, method, args)
	t1 := time.Now()
	tb.t.serve.add(float64(t1.Sub(t0)))
	if seq := args.Get("seq"); seq.Kind() == wire.KindInt {
		tb.t.spans.Store(seq.AsInt(), servedSpan{start: t0, end: t1})
	}
	return v, err
}

// opSpans splits one completed op [start, end] around the serve span its
// Seq recorded: the request path (call entry to serve start), the reply
// path (serve end to return) and the runtime's own time (op minus serve).
type opSpans struct{ reqPath, replyPath, self recorder }

func (o *opSpans) note(t *tracer, seq int64, start, end time.Time) {
	v, ok := t.spans.LoadAndDelete(seq)
	if !ok {
		return
	}
	s := v.(servedSpan)
	o.reqPath.add(float64(s.start.Sub(start)))
	o.replyPath.add(float64(end.Sub(s.end)))
	o.self.add(float64(end.Sub(start) - s.end.Sub(s.start)))
}

// reset drops the counts and samples taken so far; the live edge table
// is state, not a count, and stays.
func (t *tracer) reset() {
	for c := range t.counts.msgs {
		t.counts.msgs[c].Store(0)
		t.counts.bytes[c].Store(0)
	}
	for _, a := range []*atomic.Int64{&t.frames, &t.items, &t.locationMsgs, &t.dgcBusyNs,
		&t.storePuts, &t.dgcCalls, &t.events, &t.collected, &t.cyclic} {
		a.Store(0)
	}
	for _, r := range []*recorder{&t.send, &t.call, &t.recvOneWay, &t.recvCall, &t.dgcRecv,
		&t.serve, &t.storePut, &t.storePutBytes, &t.storeLoad} {
		r.reset()
	}
	t.spans.Clear()
}

// countSnapshot is the tracer's counts at the end of the measured loop.
type countSnapshot struct {
	msgs, bytes                        [transport.NumClasses + 1]int64
	frames, items, dgcBusyNs, dgcCalls int64
}

func (t *tracer) snapshotCounts() countSnapshot {
	var s countSnapshot
	for c := range s.msgs {
		s.msgs[c] = t.counts.msgs[c].Load()
		s.bytes[c] = t.counts.bytes[c].Load()
	}
	s.frames, s.items = t.frames.Load(), t.items.Load()
	s.dgcBusyNs, s.dgcCalls = t.dgcBusyNs.Load(), t.dgcCalls.Load()
	return s
}

// edgeSampler averages the live edge count once per beat.
type edgeSampler struct {
	stopc chan struct{}
	done  chan float64
}

func (e *edgeSampler) start(t *tracer, every time.Duration) {
	e.stopc, e.done = make(chan struct{}), make(chan float64, 1)
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		sum, n := float64(t.edges.Load()), 1.0
		for {
			select {
			case <-e.stopc:
				e.done <- sum / n
				return
			case <-tick.C:
				sum += float64(t.edges.Load())
				n++
			}
		}
	}()
}

func (e *edgeSampler) stop() float64 {
	close(e.stopc)
	return <-e.done
}
