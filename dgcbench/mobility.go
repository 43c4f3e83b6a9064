package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/active"
	"repro/internal/ids"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/tcpnet"
	"repro/internal/wire"
)

// mobility drives the state-moving path: spawn a registered kind, call
// it, checkpoint it, migrate it and call it again through the stale
// handle; and crash, revive and recover a node of durable, registered
// activities. It is the whole op of migrate-durable and the fixed-size
// probe the other two workloads end with.
type mobility struct {
	r       *run
	env     *active.Env
	sim     *simnet.Network // nil over TCP: a crash there only deregisters
	caller  *active.Node
	workers []*active.Node
	payload []byte
	// Where the first call of each op and the verification broadcasts are
	// timed: the run's own recorders when this is the workload's loop,
	// mostly private ones in a probe (see probe).
	callRec, bcastRec *recorder

	mu      sync.RWMutex // a restart runs alone: no op or other restart beside it
	durable ids.NodeID
	ids     []ids.ActivityID
	groups  []*active.Group[int64, int64]
}

// populate fills a fresh durable node with n registered, checkpointed
// activities, held by the caller in broadcast groups of 16.
func (m *mobility) populate(n int) error {
	registerKind()
	d := m.env.NewNode()
	m.durable = d.ID()
	var members []*active.Handle
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("durable-%d", i)
		h, err := d.SpawnKind(name, echoKind)
		if err != nil {
			return err
		}
		if err := m.env.RegisterName(name, h.Ref()); err != nil {
			return err
		}
		fut, err := h.Checkpoint()
		if err != nil {
			return err
		}
		if _, err := fut.Wait(opTimeout); err != nil {
			return fmt.Errorf("checkpoint %s: %w", name, err)
		}
		hc, err := remoteHandle(m.caller, h)
		if err != nil {
			return err
		}
		m.r.mon.hold(refOf(hc))
		m.ids = append(m.ids, refOf(hc))
		members = append(members, hc)
		if len(members) == 16 || i == n-1 {
			m.groups = append(m.groups, active.NewGroup[int64, int64]("ping", members...))
			members = nil
		}
	}
	return nil
}

// op is one state-moving operation. Every call echoes its Seq and the
// payload length. The identity a migration leaves behind is a forwarder:
// it is released to the DGC as soon as the move resolves, and its
// collection is the op's collection sample. The migrated activity is
// held until the op ends it with an explicit termination: left to the
// DGC, one migrated activity in several thousand is never collected (a
// runtime defect, see README.md), which would make the failed count a
// lottery.
func (m *mobility) op(rng *rand.Rand) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	r := m.r
	k := len(m.workers)
	si := rng.IntN(k)
	src, dst := m.workers[si], m.workers[(si+1+rng.IntN(k-1))%k]
	r.attempted.Add(1)
	r.mobileOps.Add(1)
	local, err := src.SpawnKind("mover", echoKind)
	if err != nil {
		r.fail("spawn: %v", err)
		return
	}
	h, err := remoteHandle(m.caller, local)
	if err != nil {
		r.fail("handle: %v", err)
		return
	}
	old := refOf(h)
	r.mon.hold(old)
	stub := active.NewStub[echoReq, echoResp](h, "echo")
	echo := func(rec *recorder) {
		seq := r.nextSeq()
		timedCall(r, rec, stub, echoReq{Seq: seq, Payload: m.payload}, seq, func(resp echoResp) bool {
			return resp.Seq == seq && resp.Echo == int64(len(m.payload))
		})
	}
	echo(m.callRec)
	if fut, err := h.Checkpoint(); err != nil {
		r.fail("checkpoint: %v", err)
	} else if _, err := fut.Wait(opTimeout); err != nil {
		r.fail("checkpoint: %v", err)
	}
	t0 := time.Now()
	moved := old
	if fut, err := h.Migrate(dst.ID()); err != nil {
		r.fail("migrate: %v", err)
	} else if v, err := fut.Wait(opTimeout); err != nil {
		r.fail("migrate: %v", err)
	} else if id, ok := v.AsRef(); !ok || id.Node != dst.ID() {
		r.fail("migrate: resolved to %v, want an activity on node %v", v, dst.ID())
	} else {
		r.migrate.since(t0)
		moved = id
		r.mon.hold(moved)
		r.mon.release(old)
	}
	echo(&r.stale) // the handle still names the old identity
	if moved == old {
		r.mon.release(old)
		h.Release()
		return
	}
	r.mon.unhold(moved)
	if hm, err := m.caller.HandleFor(wire.Ref(moved)); err != nil {
		r.fail("handle: %v", err)
	} else {
		hm.Terminate()
	}
	h.Release()
}

// restart crashes the durable node, revives it and recovers it from the
// store, then checks that no registered identity was lost: every name
// resolves to its old identity and every activity answers a broadcast.
func (m *mobility) restart() {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.r
	r.attempted.Add(1)
	if m.sim != nil {
		m.sim.KillNode(m.durable)
	}
	m.env.Node(m.durable).Crash()
	if m.sim != nil {
		m.sim.ReviveNode(m.durable)
	}
	t0 := time.Now()
	n, err := m.env.Recover()
	d := time.Since(t0)
	if err != nil {
		r.fail("recover: %v", err)
	}
	if n < len(m.ids) {
		r.fail("recover: restored %d activities, want at least %d", n, len(m.ids))
	}
	if n > 0 {
		r.recoverPer.add(float64(d) / float64(n))
	}
	for i, id := range m.ids {
		v, err := m.env.Lookup(fmt.Sprintf("durable-%d", i))
		if got, _ := v.AsRef(); err != nil || got != id {
			r.fail("lost identity durable-%d: %v %v", i, v, err)
		}
	}
	m.verify()
}

// verify broadcasts a ping to every durable group; each member must echo
// it.
func (m *mobility) verify() {
	r := m.r
	for _, g := range m.groups {
		seq := r.nextSeq()
		r.attempted.Add(1)
		t0 := time.Now()
		fg, err := g.Broadcast(seq)
		if err != nil {
			r.fail("broadcast: %v", err)
			continue
		}
		resps, err := fg.WaitAll(opTimeout)
		if err != nil {
			r.fail("broadcast: %v", err)
			continue
		}
		m.bcastRec.since(t0)
		for _, v := range resps {
			if v != seq {
				r.fail("broadcast seq %d: member answered %d", seq, v)
			}
		}
	}
}

// The probe's shape: episodes, each in a fresh environment on loopback
// TCP, of crash-recovery cycles of a durable population and then
// state-moving operations.
const (
	probeEpisodes = 8
	probeRestarts = 15 // per episode
	probeDurable  = 1024
	probeOps      = 175 // per episode
	probeTTB      = 100 * time.Millisecond
)

// probeSizes records the probe's shape in a workload's output.
func probeSizes(r *run, sizes map[string]any) map[string]any {
	sizes["probe"] = map[string]any{"transport": "tcpnet", "store": "MemStore",
		"ttb_ms": probeTTB.Milliseconds(), "tta_ms": 5 * probeTTB.Milliseconds(),
		"episodes": probeEpisodes, "restarts_per_episode": probeRestarts,
		"durable": size(r, probeDurable, 16), "ops_per_episode": size(r, probeOps, 8)}
	return sizes
}

// probe fills in the figures a workload's own loop does not produce:
// recovery, migration and stale calls. It is one fixed scenario, run once
// the loop's world is closed, as episodes in fresh environments of their
// own. A fresh environment keeps the loop's leftovers (its heap, its
// tables, the garbage still being collected) from setting the probe's
// pace; several short episodes keep one environment's map layouts and
// the location caches its moves fill (Cache.Add is linear in their size)
// from setting it either. Its plain calls are never reported. Its
// verification broadcasts are the workload's bcast_p50_us when bcast is
// set, and its forwarders' collections count towards collect_* when
// collect is set: each for a loop that has no such figures of its own.
// Every collection is checked for completeness either way.
func probe(r *run, payload []byte, bcast, collect bool) error {
	loopCollect := r.mon.collectSamples()
	for e := 0; e < probeEpisodes; e++ {
		if err := probeEpisode(r, payload, bcast, e); err != nil {
			return err
		}
	}
	if !collect {
		r.mon.mu.Lock()
		r.mon.collect, r.mon.checked = loopCollect, len(loopCollect)
		r.mon.mu.Unlock()
	}
	return nil
}

// probeEpisode runs episode e of the probe.
func probeEpisode(r *run, payload []byte, bcast bool, e int) error {
	tn, err := tcpnet.New(tcpnet.Config{})
	if err != nil {
		return err
	}
	env := newEnv(r, workload{name: "probe", ttb: probeTTB, tta: 5 * probeTTB}, tn, store.NewMemStore())
	defer env.Close()
	caller, workers := newNodes(r, env, 4)
	m := &mobility{r: r, env: env, caller: caller, workers: workers, payload: payload,
		callRec: &recorder{}, bcastRec: &recorder{}}
	if bcast {
		m.bcastRec = &r.bcast
	}
	// Start from a collected heap, whatever garbage came before.
	runtime.GC()
	if err := m.populate(size(r, probeDurable, 16)); err != nil {
		return err
	}
	for i := 0; i < probeRestarts; i++ {
		m.restart()
	}
	ops := size(r, probeOps, 8)
	r.chunkedLoop(env, 1<<40+e*ops, ops, func(_ int, rng *rand.Rand) { m.op(rng) }, false)
	r.mon.awaitCollected(r, collectBound)
	return nil
}
