package main

import (
	"fmt"
	"time"

	"repro/internal/active"
	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/transport"
)

// parityCheck shows the tracing wrappers are pure pass-throughs. One
// fixed scenario runs untraced and traced. Its deterministic part must
// produce identical per-class message and byte counts in both runs; over
// the whole scenario the tracer must count exactly what the transport
// accounted; batch frames must reach the wrapped endpoint (a wrapper
// hiding BatchSender would send them item by item); and the wrapped
// transports must keep ProcessCaller and MaxComm.
func parityCheck() error {
	plain, _, _, err := parityScenario(nil)
	if err != nil {
		return fmt.Errorf("parity: untraced scenario: %w", err)
	}
	t := &tracer{}
	traced, total, seen, err := parityScenario(t)
	if err != nil {
		return fmt.Errorf("parity: traced scenario: %w", err)
	}
	for c := transport.Class(1); c <= transport.NumClasses; c++ {
		if plain.Messages[c] != traced.Messages[c] || plain.Bytes[c] != traced.Bytes[c] {
			return fmt.Errorf("parity: %v traffic untraced %d msgs/%d B, traced %d msgs/%d B",
				c, plain.Messages[c], plain.Bytes[c], traced.Messages[c], traced.Bytes[c])
		}
		if uint64(seen.msgs[c]) != total.Messages[c] || uint64(seen.bytes[c]) != total.Bytes[c] {
			return fmt.Errorf("parity: %v traffic accounted %d msgs/%d B, wrapper saw %d msgs/%d B",
				c, total.Messages[c], total.Bytes[c], seen.msgs[c], seen.bytes[c])
		}
	}
	if seen.items <= seen.frames {
		return fmt.Errorf("parity: %d messages in %d frames: no batch frame reached the wrapped endpoint", seen.items, seen.frames)
	}
	tn, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		return fmt.Errorf("parity: %w", err)
	}
	defer tn.Close()
	sn := simnet.New(simnet.Config{})
	defer sn.Close()
	for _, base := range []transport.Transport{tn, sn} {
		wrapped := (&tracer{}).wrapTransport(base)
		_, basePC := base.(transport.ProcessCaller)
		_, wrapPC := wrapped.(transport.ProcessCaller)
		_, baseBS := base.Register(900, nopHandler{}).(transport.BatchSender)
		_, wrapBS := wrapped.Register(901, nopHandler{}).(transport.BatchSender)
		if basePC != wrapPC || baseBS != wrapBS || base.MaxComm() != wrapped.MaxComm() {
			return fmt.Errorf("parity: %T wrapper changes extensions: ProcessCaller %v→%v, BatchSender %v→%v, MaxComm %v→%v",
				base, basePC, wrapPC, baseBS, wrapBS, base.MaxComm(), wrapped.MaxComm())
		}
	}
	return nil
}

type nopHandler struct{}

func (nopHandler) HandleOneWay(ids.NodeID, transport.Class, []byte)      {}
func (nopHandler) HandleCall(ids.NodeID, transport.Class, []byte) []byte { return nil }

// parityScenario is a fixed, single-goroutine mix of every traffic shape
// the workloads send on a DGC-free simnet. It returns the transport's
// counters after its deterministic part (typed calls, a group broadcast,
// batched one-way sends) and after the whole scenario, which adds
// migrations and stale calls: whether a stale call meets the forwarder
// depends on when the location announcement lands, so their message
// count varies between any two runs. With a tracer it also returns what
// the tracer counted.
func parityScenario(t *tracer) (det, total transport.Counters, seen countSnapshot, err error) {
	fail := func(e error) (transport.Counters, transport.Counters, countSnapshot, error) {
		return transport.Counters{}, transport.Counters{}, countSnapshot{}, e
	}
	registerKind()
	var tr transport.Transport = simnet.New(simnet.Config{})
	if t != nil {
		tr = t.wrapTransport(tr)
	}
	env := active.NewEnv(active.Config{Transport: tr, DisableDGC: true, BatchWindow: time.Millisecond})
	defer env.Close() // idempotent; the success path closes first to flush
	caller := env.NewNode()
	if t != nil {
		t.caller = caller.ID()
	}
	workers := []*active.Node{env.NewNode(), env.NewNode(), env.NewNode()}
	var svc active.Behavior = echoService()
	if t != nil {
		svc = tracedBehavior{b: svc, t: t}
	}
	var stubs []active.Stub[echoReq, echoResp]
	var members []*active.Handle
	for i := 0; i < 12; i++ {
		h, err := remoteHandle(caller, workers[i%3].NewActive("echo", svc))
		if err != nil {
			return fail(err)
		}
		defer h.Release()
		stubs = append(stubs, active.NewStub[echoReq, echoResp](h, "echo"))
		g, err := caller.HandleFor(h.Ref())
		if err != nil {
			return fail(err)
		}
		members = append(members, g)
	}
	group := active.NewGroup[echoReq, echoResp]("echo", members...)
	defer group.Release()
	body := make([]byte, 64)
	for i := 0; i < 48; i++ {
		if _, err := stubs[i%12].CallSync(echoReq{Seq: int64(i), Payload: body}, opTimeout); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < 4; i++ {
		fg, err := group.Broadcast(echoReq{Seq: int64(i), Payload: body})
		if err != nil {
			return fail(err)
		}
		if _, err := fg.WaitAll(opTimeout); err != nil {
			return fail(err)
		}
	}
	// One-way bursts linger in the flusher and leave as batch frames; the
	// call after each burst waits until the burst has been served.
	for i := 0; i < 4; i++ {
		for j := 0; j < 16; j++ {
			if err := stubs[i].Send(echoReq{Seq: int64(j), Payload: body}); err != nil {
				return fail(err)
			}
		}
		if _, err := stubs[i].CallSync(echoReq{Payload: body}, opTimeout); err != nil {
			return fail(err)
		}
	}
	det = env.Network().Snapshot()
	for i := 0; i < 3; i++ {
		local, err := workers[i].SpawnKind("mover", echoKind)
		if err != nil {
			return fail(err)
		}
		h, err := remoteHandle(caller, local)
		if err != nil {
			return fail(err)
		}
		defer h.Release()
		fut, err := h.Migrate(workers[(i+1)%3].ID())
		if err != nil {
			return fail(err)
		}
		if _, err := fut.Wait(opTimeout); err != nil {
			return fail(err)
		}
		stub := active.NewStub[echoReq, echoResp](h, "echo")
		if _, err := stub.CallSync(echoReq{Payload: body}, opTimeout); err != nil {
			return fail(err)
		}
	}
	env.Close() // flushes every batched send before the counts are read
	if t != nil {
		seen = t.snapshotCounts()
	}
	return det, tr.Snapshot(), seen, nil
}
