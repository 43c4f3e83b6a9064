package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"repro/internal/active"
	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// workload is one benchmark input: how to build its world and how fast
// to drive it. A run performs opsPerSec × --seconds operations, a fixed
// count, so the counts repeat from run to run.
type workload struct {
	name      string
	why       string
	ttb, tta  time.Duration
	opsPerSec int
	build     func(r *run, w workload) (*world, error)
}

// world is one built environment of a workload.
type world struct {
	env   *active.Env
	sizes map[string]any
	op    func(i int, rng *rand.Rand)
	after func() error // teardown, after the measured loop; nil for none
	probe func() error // after the world is closed; nil for none
	close func()
}

// Population sizes, full and for the smoke test.
func size(r *run, full, tiny int) int {
	if r.p.tiny {
		return tiny
	}
	return full
}

// collectBound is the completeness bound in beats: the deepest garbage
// the workloads build (a ring of 16, a chain of 8) is collected in
// O(h·TTB), far below it.
const collectBound = 150

var workloads = []workload{
	{
		name:      "rpc-tcp",
		why:       "typed 64 B calls and 4 KiB 16-member broadcasts over loopback TCP on a static graph: the request path does the work, DGC almost none",
		ttb:       100 * time.Millisecond,
		tta:       500 * time.Millisecond,
		opsPerSec: 25000,
		build:     buildRPC,
	},
	{
		name:      "dgc-churn",
		why:       "rings of 4 and 16 and chains of 8 built by calls and released beside 1000 standing activities: core and the beat path do the work",
		ttb:       30 * time.Millisecond,
		tta:       150 * time.Millisecond,
		opsPerSec: 46,
		build:     buildChurn,
	},
	{
		name:      "migrate-durable",
		why:       "spawn, call, checkpoint, migrate and stale-call per op over a fsync FileStore, with crash-recover cycles of 1024 durable activities",
		ttb:       30 * time.Millisecond,
		tta:       150 * time.Millisecond,
		opsPerSec: 600,
		build:     buildDurable,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newEnv builds an environment over tr with the workload's timing, the
// run's monitor and, traced, the tracer's wrappers.
func newEnv(r *run, w workload, tr transport.Transport, st store.Store) *active.Env {
	if r.tr != nil {
		tr = r.tr.wrapTransport(tr)
		st = tracedStore{Store: st, t: r.tr}
	}
	return active.NewEnv(active.Config{
		TTB:       w.ttb,
		TTA:       w.tta,
		Transport: tr,
		Store:     st,
		OnEvent:   r.mon.onEvent,
	})
}

// newNodes creates the caller node and n worker nodes.
func newNodes(r *run, env *active.Env, n int) (*active.Node, []*active.Node) {
	caller := env.NewNode()
	if r.tr != nil {
		r.tr.caller = caller.ID()
	}
	workers := make([]*active.Node, n)
	for i := range workers {
		workers[i] = env.NewNode()
	}
	return caller, workers
}

func buildRPC(r *run, w workload) (*world, error) {
	const (
		nodes      = 4
		groupSize  = 16
		groups     = 4
		bcastEvery = 32
		callBytes  = 64
		bcastBytes = 4096
	)
	actors := size(r, 256, 32)
	tn, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		return nil, err
	}
	env := newEnv(r, w, tn, store.NewMemStore())
	caller, workers := newNodes(r, env, nodes)
	svc := r.behavior(echoService())
	stubs := make([]active.Stub[echoReq, echoResp], actors)
	handles := make([]*active.Handle, actors)
	for i := range handles {
		h, err := remoteHandle(caller, workers[i%nodes].NewActive(fmt.Sprintf("echo-%d", i), svc))
		if err != nil {
			env.Close()
			return nil, err
		}
		r.mon.hold(refOf(h))
		handles[i], stubs[i] = h, active.NewStub[echoReq, echoResp](h, "echo")
	}
	setupRng := rand.New(rand.NewPCG(r.p.seed, ^uint64(0)))
	gs := make([]*active.Group[echoReq, echoResp], groups)
	for g := range gs {
		var members []*active.Handle
		for _, a := range setupRng.Perm(actors)[:min(groupSize, actors)] {
			h, err := caller.HandleFor(handles[a].Ref())
			if err != nil {
				env.Close()
				return nil, err
			}
			members = append(members, h)
		}
		gs[g] = active.NewGroup[echoReq, echoResp]("echo", members...)
	}
	small, big := payload(setupRng, callBytes), payload(setupRng, bcastBytes)

	op := func(i int, rng *rand.Rand) {
		seq := r.nextSeq()
		if i%bcastEvery == bcastEvery-1 {
			g := gs[rng.IntN(groups)]
			r.attempted.Add(1)
			t0 := time.Now()
			fg, err := g.Broadcast(echoReq{Seq: seq, Payload: big})
			if err != nil {
				r.fail("broadcast: %v", err)
				return
			}
			resps, err := fg.WaitAll(opTimeout)
			if err != nil {
				r.fail("broadcast seq %d: %v", seq, err)
				return
			}
			r.bcast.since(t0)
			for _, resp := range resps {
				if resp.Seq != seq || resp.Echo != bcastBytes {
					r.fail("broadcast seq %d: mismatched reply %+v", seq, resp)
				}
			}
			return
		}
		timedCall(r, &r.call, stubs[rng.IntN(actors)], echoReq{Seq: seq, Payload: small}, seq,
			func(resp echoResp) bool { return resp.Seq == seq && resp.Echo == callBytes })
	}
	after := func() error {
		// Teardown first: drop the static graph (its collection is
		// acyclic), so the probe runs beside none of the loop's DGC load.
		for _, h := range handles {
			r.mon.release(refOf(h))
		}
		for _, h := range handles {
			h.Release()
		}
		for _, g := range gs {
			g.Release()
		}
		r.mon.awaitCollected(r, collectBound)
		return nil
	}
	return &world{
		env: env,
		sizes: probeSizes(r, map[string]any{"worker_nodes": nodes, "actors": actors, "group_size": groupSize,
			"groups": groups, "bcast_every": bcastEvery, "call_bytes": callBytes, "bcast_bytes": bcastBytes}),
		op:    op,
		after: after,
		probe: func() error { return probe(r, small, false, true) },
		close: env.Close,
	}, nil
}

func buildChurn(r *run, w workload) (*world, error) {
	const (
		nodes    = 4
		chainLen = 8
	)
	standing := size(r, 1000, 64)
	gcCap := size(r, 512, 64)
	sn := simnet.New(simnet.Config{})
	env := newEnv(r, w, sn, store.NewMemStore())
	caller, workers := newNodes(r, env, nodes)
	svc := r.behavior(cellService())
	// The standing set is held from its own node: its beats then share no
	// FIFO pair queue with the callers' requests, only the workers' CPUs.
	holder := env.NewNode()
	held := make([]*active.Handle, standing)
	for i := range held {
		h, err := remoteHandle(holder, workers[i%nodes].NewActive("standing", svc))
		if err != nil {
			env.Close()
			return nil, err
		}
		r.mon.hold(refOf(h))
		held[i] = h
	}

	// spawn creates k cells spanning the worker nodes, held by the caller.
	spawn := func(k int, rng *rand.Rand) ([]*active.Handle, []ids.ActivityID, bool) {
		start := rng.IntN(nodes)
		hs := make([]*active.Handle, k)
		idList := make([]ids.ActivityID, k)
		for j := range hs {
			h, err := remoteHandle(caller, workers[(start+j)%nodes].NewActive("cell", svc))
			if err != nil {
				r.fail("handle: %v", err)
				for _, h := range hs[:j] {
					h.Release()
				}
				return nil, nil, false
			}
			r.mon.hold(refOf(h))
			hs[j], idList[j] = h, refOf(h)
		}
		return hs, idList, true
	}
	// callLinks links cell j to next[j] with one call each, in order.
	callLinks := func(hs []*active.Handle, next []wire.Value) {
		for j, h := range hs {
			seq := r.nextSeq()
			timedCall(r, &r.call, active.NewStub[linkReq, int64](h, "link"),
				linkReq{Seq: seq, Next: next[j]}, seq, func(v int64) bool { return v == seq })
		}
	}
	// build spawns k cells, links them into a ring (or a chain: the last
	// cell links to nothing) and releases them as garbage.
	build := func(k int, ring bool, rng *rand.Rand) {
		hs, idList, ok := spawn(k, rng)
		if !ok {
			return
		}
		n := k
		if !ring {
			n = k - 1
		}
		next := make([]wire.Value, n)
		for j := range next {
			next[j] = hs[(j+1)%k].Ref()
		}
		callLinks(hs[:n], next)
		r.mon.release(idList...)
		for _, h := range hs {
			h.Release()
		}
	}
	// The shape follows the op index, so every run builds the same mix;
	// the seed places it. Ring-of-16 members are most of the garbage, so
	// the collection median sits inside their mode; every link is a call,
	// so each chunk of the run holds over a thousand call samples.
	op := func(i int, rng *rand.Rand) {
		// Keep outstanding garbage under the cap: past it, building more
		// only measures how far the collector lags.
		for r.mon.outstanding.Load() > int64(gcCap) {
			time.Sleep(w.ttb / 4)
		}
		switch i % 5 {
		case 0, 2:
			build(4, true, rng)
		case 1, 3:
			build(16, true, rng)
		default:
			build(chainLen, false, rng)
		}
	}
	after := func() error {
		// Teardown: release the standing set; all of it must go.
		live := env.LiveActivities()
		for _, h := range held {
			r.mon.unhold(refOf(h))
			h.Release()
		}
		if _, err := env.WaitCollected(live-len(held), collectBound*w.ttb); err != nil {
			r.miss("completeness: standing set: %v", err)
		}
		return nil
	}
	return &world{
		env: env,
		sizes: probeSizes(r, map[string]any{"worker_nodes": nodes, "standing": standing, "garbage_cap": gcCap,
			"shapes": "per 5 ops: two ring4, two ring16 and a chain8, linked by calls"}),
		op:    op,
		after: after,
		probe: func() error { return probe(r, make([]byte, 16), true, false) },
		close: func() {
			for _, h := range held {
				h.Release()
			}
			env.Close()
		},
	}, nil
}

func buildDurable(r *run, w workload) (*world, error) {
	const (
		nodes     = 4
		restarts  = 6 * chunks
		callBytes = 16
	)
	population := size(r, 1024, 32)
	if err := os.MkdirAll(r.p.tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.p.tmp, "store-")
	if err != nil {
		return nil, err
	}
	fs, err := store.NewFileStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sn := simnet.New(simnet.Config{})
	env := newEnv(r, w, sn, fs)
	closeAll := func() {
		env.Close()
		fs.Close()
		os.RemoveAll(dir)
	}
	caller, workers := newNodes(r, env, nodes)
	m := &mobility{r: r, env: env, sim: sn, caller: caller, workers: workers,
		payload: payload(rand.New(rand.NewPCG(r.p.seed, ^uint64(0))), callBytes),
		callRec: &r.call, bcastRec: &r.bcast}
	if err := m.populate(population); err != nil {
		closeAll()
		return nil, err
	}
	every := max(1, r.ops/restarts)
	op := func(i int, rng *rand.Rand) {
		m.op(rng)
		if i >= r.warm && (i-r.warm+1)%every == 0 {
			m.restart()
		}
	}
	return &world{
		env: env,
		sizes: map[string]any{"worker_nodes": nodes, "durable": population, "restarts": restarts,
			"restart_every_ops": every, "call_bytes": callBytes, "store": "FileStore, fsync per ack"},
		op:    op,
		close: closeAll,
	}, nil
}
