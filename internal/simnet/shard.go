package simnet

// Sharded deterministic parallel engine.
//
// The fat-tree is partitioned into domains: one per pod (the pod's
// switches and every host under them) plus one per core switch. Every
// domain owns an eventq.Queue, and all simulation state a domain's
// events touch — its links' serializers, its switches' buffer bytes and
// per-switch counters, its hosts' flow endpoints, its slice of the
// scheme's per-shard stats — is written only by that domain. Domains are
// fixed by the topology, NOT by the worker count: a run with 8 worker
// goroutines and a run with 1 execute the same per-domain event
// sequences, which is what makes same-seed results byte-identical at
// any -shards value.
//
// Synchronization is conservative (no rollback). All links share the
// topology's LinkDelay, so a packet crossing a domain boundary cannot
// arrive earlier than one LinkDelay after its last bit left the egress
// serializer. That propagation delay is the lookahead W: in each round
// the engine computes T = min over domains of the earliest pending
// event, then every domain dispatches its events in [T, T+W) in
// parallel with no communication at all. Packets that finish
// serializing on a boundary link during the window are posted to a
// per-(source domain, destination domain) mailbox; at the barrier the
// mailboxes are drained in fixed (src, dst) order into the destination
// queues.
//
// Determinism across modes does not depend on that drain order, because
// every cross-domain arrival carries an explicit tie-break key assigned
// at post time: eventq.CrossKeyBase | (src+1)<<40 | per-pair emission
// counter. Keys sort after every same-instant local event and order
// cross arrivals by (source domain, emission order), so the dispatch
// order at the destination is a pure function of event content — the
// same whether the record was inserted eagerly (the serial oracle,
// Engine.ShardOracle) or in a batch at a barrier (the windowed parallel
// loop).
//
// Everything that must observe or mutate more than one domain runs
// single-threaded at the barrier: counter merging (add-and-zero of each
// view's scalar Counters into the root), the scheme's SyncShards hook,
// fault application (Engine.AtBarrier), and telemetry sampling
// (Engine.SetBarrierSampler). Windows are additionally capped at the
// next fault instant and the next sampling instant, so faults apply and
// samples are taken at exactly the same simulated instants — relative
// to the event stream — as on the serial engine.

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"switchv2p/internal/eventq"
	"switchv2p/internal/packet"
	"switchv2p/internal/simtime"
)

// ShardAware is implemented by schemes that keep per-shard mutable
// state so they can run on the sharded engine. SetShardSlots(n) is
// called once by EnableSharding with the domain count; the scheme must
// from then on route hot-path mutations through the slot returned by
// Engine.ShardSlot on the engine value it was handed. SyncShards runs
// single-threaded at every barrier and folds the per-slot deltas into
// the scheme's aggregate state.
//
// Schemes without per-shard state (stateless baselines) simply do not
// implement the interface; schemes with shard-unsafe global state must
// not be run sharded at all (the harness keeps the audited whitelist).
type ShardAware interface {
	SetShardSlots(n int)
	SyncShards()
}

// mailbox accumulates one window's packet handoffs from one source
// domain to one destination domain. nextKey is the per-pair emission
// counter behind the deterministic cross-arrival tie-break keys.
type mailbox struct {
	recs    []mailRec
	nextKey uint64
}

type mailRec struct {
	at  simtime.Time
	key uint64
	l   *link
	p   *packet.Packet
}

type barrierOp struct {
	at simtime.Time
	fn func()
}

// sharding is the root engine's shard-coordination state. Fields fall
// into three ownership classes: immutable after EnableSharding (nDom,
// domOfSw, domOfHost, qs, views, lookahead), written only between
// windows by the barrier thread (now, barrier, sampler state, mail
// drain side), and written during windows under the claim protocol
// (each mail[src] row by src's worker; each qs[d]/domEvents[d] by the
// worker that claimed domain d). Code outside this file's barrier and
// mailbox paths must not reach into these fields; the -race runs of the
// TestShard* byte-identity tests are what catch a violation.
type sharding struct {
	root      *Engine
	views     []*Engine
	qs        []*eventq.Queue
	domOfSw   []int32
	domOfHost []int32
	nDom      int
	workers   int
	oracle    bool

	lookahead simtime.Duration
	now       simtime.Time // barrier clock: start of the current window

	mail    [][]mailbox // [srcDom][dstDom]
	barrier []barrierOp // pending AtBarrier ops, time-ordered

	aware ShardAware // scheme barrier hook, nil for stateless schemes

	sampler  func(simtime.Time)
	sampleIv simtime.Duration
	nextTick simtime.Time

	domEvents []int64 // events dispatched per domain, cumulative

	// Worker-pool plumbing, valid only inside runWindow: claim is the
	// atomic next-domain counter, windowEnd the current window's
	// exclusive bound, wg the window barrier.
	claim     int32
	windowEnd simtime.Time
	wg        sync.WaitGroup
}

// EnableSharding converts the engine to the sharded deterministic
// parallel mode with the given number of worker goroutines (values < 1
// are treated as 1). The domain partition is fixed by the topology —
// one domain per pod plus one per core switch — so results are
// byte-identical at any worker count; workers only decide how domains
// are spread over goroutines each window.
//
// The conversion is one-way: the root event queue is frozen (stray
// schedulers panic loudly instead of racing), and per-domain engine
// views take over at the first Run. Call it after New and before any
// flows are scheduled; callers that schedule host-side events must use
// HostAtTimed, and barrier-side tools AtBarrier/SetBarrierSampler.
func (e *Engine) EnableSharding(workers int) {
	if e.dom >= 0 {
		panic("simnet: EnableSharding called on a shard view")
	}
	if workers < 1 {
		workers = 1
	}
	if e.shard != nil {
		e.shard.workers = workers
		return
	}
	if e.Topo.Cfg.LinkDelay <= 0 {
		panic("simnet: sharded engine requires a positive topology LinkDelay " +
			"(the link propagation delay is the conservative lookahead)")
	}
	nDom := e.Topo.Cfg.Pods
	domOfSw := make([]int32, len(e.Topo.Switches))
	for i := range e.Topo.Switches {
		if pod := e.Topo.Switches[i].Pod; pod >= 0 {
			domOfSw[i] = int32(pod)
		} else {
			// Core switches get a domain each, in switch-index order.
			domOfSw[i] = int32(nDom)
			nDom++
		}
	}
	domOfHost := make([]int32, len(e.Topo.Hosts))
	for i := range e.Topo.Hosts {
		domOfHost[i] = domOfSw[e.Topo.Hosts[i].ToR]
	}
	sh := &sharding{
		root:      e,
		nDom:      nDom,
		workers:   workers,
		domOfSw:   domOfSw,
		domOfHost: domOfHost,
		lookahead: e.Topo.Cfg.LinkDelay,
	}
	sh.qs = make([]*eventq.Queue, nDom)
	for i := range sh.qs {
		sh.qs[i] = &eventq.Queue{}
	}
	sh.mail = make([][]mailbox, nDom)
	for i := range sh.mail {
		sh.mail[i] = make([]mailbox, nDom)
	}
	sh.domEvents = make([]int64, nDom)
	if sa, ok := e.Scheme.(ShardAware); ok {
		sa.SetShardSlots(nDom)
		sh.aware = sa
	}
	e.shard = sh
	e.pool = nil // views copy it: the sharded engine allocates its packets
	e.Q.Freeze("simnet: the root event queue is frozen in sharded mode; " +
		"schedule host events via HostAtTimed and barrier work via " +
		"AtBarrier, or run this scheme/tool on the serial engine")
}

// Sharded reports whether EnableSharding has run on this engine.
func (e *Engine) Sharded() bool { return e.shard != nil }

// ShardDomains returns the number of shard domains (pods + core
// switches), or 0 on a serial engine. The count is immutable after
// EnableSharding, so any goroutine may ask.
func (e *Engine) ShardDomains() int {
	if e.shard == nil {
		return 0
	}
	return e.shard.nDom
}

// ShardSlot returns the per-shard slot index a ShardAware scheme must
// use for hot-path stat mutations on this engine value: the domain
// index on a shard view, 0 on a serial engine or the root.
func (e *Engine) ShardSlot() int {
	if e.dom >= 0 {
		return int(e.dom)
	}
	return 0
}

// hostQ returns the event queue that owns the given host: the domain
// queue when sharded, the root queue otherwise. Called through the
// root engine by the transport layer; on a shard view it returns the
// view's own queue (the view IS the host's owner — transport callbacks
// run there). It reads only the immutable domain map and queue table.
func (e *Engine) hostQ(host int32) *eventq.Queue {
	if sh := e.shard; sh != nil && e.dom < 0 {
		return sh.qs[sh.domOfHost[host]]
	}
	return e.Q
}

// HostNow returns the current simulated time at the given host: its
// domain queue's clock when sharded, the global clock otherwise. Use it
// (instead of Now) for any timestamp taken on a host's behalf.
func (e *Engine) HostNow(host int32) simtime.Time { return e.hostQ(host).Now() }

// HostAtTimed schedules ev at instant t on the queue that owns the given
// host. It is the sharded-safe replacement for Q.AtTimed in host-side code
// (flow starts, transport timers, datagram pacing); on a serial engine it
// is exactly Q.AtTimed.
func (e *Engine) HostAtTimed(host int32, t simtime.Time, ev eventq.Timed) {
	e.hostQ(host).AtTimed(t, ev)
}

// viewOf returns the engine view owning the given host. Only valid
// once views exist (mid-run). It reads only the immutable domain map
// and view table; the returned view is the packet's new owner.
func (e *Engine) viewOf(host int32) *Engine {
	sh := e.shard
	return sh.views[sh.domOfHost[host]]
}

// AtBarrier schedules fn to run single-threaded at simulated time t,
// outside any shard window — the scheduling point for operations that
// touch cross-domain state, such as fault application. On a serial
// engine it is an ordinary queue event. fn runs after every event
// earlier than t and before any event at t or later, in both modes.
// Call it from setup or barrier context only: the barrier schedule is
// not synchronized against window workers.
func (e *Engine) AtBarrier(t simtime.Time, fn func()) {
	sh := e.shard
	if sh == nil {
		e.Q.At(t, fn)
		return
	}
	// Insertion sort, stable for equal instants: schedules are mostly
	// pre-sorted and short, and stability preserves injector file order.
	i := len(sh.barrier)
	sh.barrier = append(sh.barrier, barrierOp{})
	for i > 0 && sh.barrier[i-1].at > t {
		sh.barrier[i] = sh.barrier[i-1]
		i--
	}
	sh.barrier[i] = barrierOp{at: t, fn: fn}
}

// SetBarrierSampler installs the telemetry sampling hook on a sharded
// engine: fn runs single-threaded at every multiple of interval, after
// all events earlier than the instant and before any event at or after
// it — the same position in the event stream the serial collector's
// self-rescheduling tick occupies. Install it before the run starts.
func (e *Engine) SetBarrierSampler(interval simtime.Duration, fn func(simtime.Time)) {
	sh := e.shard
	if sh == nil {
		panic("simnet: SetBarrierSampler requires EnableSharding")
	}
	if interval <= 0 || fn == nil {
		return
	}
	sh.sampleIv = interval
	sh.nextTick = simtime.Time(0).Add(interval)
	sh.sampler = fn
}

// build constructs the per-domain engine views lazily at the first Run,
// so it snapshots the fully wired engine: Handler (set by the transport
// layer) and Prof (set by telemetry attachment). Each view is a shallow
// copy of the root sharing all topology-shaped slices — the
// per-switch/per-host counter slices are index-disjoint across domains
// — with its own queue, UID space, loss PRNG, buffer-gauge readings and
// zeroed scalar counters. Every link is rebound to its egress-owner view
// and destination view, marking shard-boundary links for the mailbox path.
func (sh *sharding) build() {
	if sh.views != nil {
		return
	}
	root := sh.root
	if root.Tap != nil {
		panic("simnet: packet taps observe every domain and are serial-only; detach the tap or skip EnableSharding")
	}
	sh.oracle = root.ShardOracle
	sh.views = make([]*Engine, sh.nDom)
	for d := range sh.views {
		v := new(Engine)
		*v = *root
		v.Q = sh.qs[d]
		v.dom = int32(d)
		v.Prof = nil
		v.C = Counters{
			SwitchPackets:     root.C.SwitchPackets,
			SwitchBytes:       root.C.SwitchBytes,
			SwitchDrops:       root.C.SwitchDrops,
			GatewayPktByHost:  root.C.GatewayPktByHost,
			GatewayByteByHost: root.C.GatewayByteByHost,
		}
		// Disjoint UID spaces keep packet UIDs unique without
		// coordination; the per-domain counters make them a pure function
		// of the domain's own event sequence.
		v.nextUID = uint64(d+1) << 48
		v.lossRand = nil
		if root.lossSeed != 0 {
			v.lossRand = rand.New(rand.NewSource(shardLossSeed(root.lossSeed, d)))
		}
		v.hostEvFree = nil
		v.crossFree = nil
		sh.views[d] = v
	}
	bind := func(l *link, src, dst int32) {
		if l == nil {
			return
		}
		l.e = sh.views[src]
		l.dst = sh.views[dst]
		l.dstDom = dst
		l.boundary = src != dst
	}
	for h, l := range root.hostUp {
		d := sh.domOfHost[h]
		bind(l, d, d)
		bind(root.hostDown[h], d, d)
	}
	for s, nbrs := range root.swNbr {
		for _, l := range nbrs {
			bind(l, sh.domOfSw[s], sh.domOfSw[l.dstSw])
		}
	}
}

// shardLossSeed derives domain d's loss-PRNG seed from the engine seed.
// The derivation depends only on (seed, domain), never on worker count
// or scheduling, so loss coin flips are deterministic per domain.
func shardLossSeed(seed int64, d int) int64 {
	return seed + int64(d+1)*0x6A09E667
}

// post hands a packet that finished serializing on a boundary link to
// the cross-domain machinery: its arrival instant is one propagation
// delay out (≥ the window end, which is what makes the lookahead
// conservative), and its tie-break key is assigned here, at emission,
// from the per-(src,dst) counter. In windowed mode the record waits in
// the mailbox until the barrier; the oracle inserts it eagerly — the
// key makes both orders identical.
func (sh *sharding) post(l *link, p *packet.Packet) {
	src := l.e.dom
	mb := &sh.mail[src][l.dstDom]
	mb.nextKey++
	key := eventq.CrossKeyBase | uint64(src+1)<<40 | mb.nextKey
	at := l.e.Q.Now().Add(l.delay)
	if sh.oracle {
		sh.deliverCross(l, p, at, key)
		return
	}
	// The rec slice is reset (not freed) at each barrier, so it grows to
	// the per-window high-water mark and is then reused.
	mb.recs = append(mb.recs, mailRec{at: at, key: key, l: l, p: p})
}

// deliverCross schedules one cross-domain arrival on the destination
// domain's queue, through that view's pooled crossEvent records.
func (sh *sharding) deliverCross(l *link, p *packet.Packet, at simtime.Time, key uint64) {
	v := l.dst
	ev := v.getCrossEvent()
	ev.l = l
	ev.p = p
	v.Q.AtTimedKeyed(at, ev, key)
}

// crossEvent is the pooled arrival record for cross-domain packets: it
// fires on the destination domain's queue and completes the link's
// deliver stage there.
type crossEvent struct {
	v *Engine
	l *link
	p *packet.Packet
}

// Fire recycles the record and delivers the packet.
func (ev *crossEvent) Fire() {
	v, l, p := ev.v, ev.l, ev.p
	ev.l, ev.p = nil, nil
	v.crossFree = append(v.crossFree, ev)
	// The mailbox carries no slot: the packet is as it was admitted, so
	// its size is the admitted one.
	l.deliverPkt(p, p.Size())
}

// getCrossEvent pops a pooled record, allocating only to grow the pool.
func (e *Engine) getCrossEvent() *crossEvent {
	if n := len(e.crossFree); n > 0 {
		ev := e.crossFree[n-1]
		e.crossFree = e.crossFree[:n-1]
		return ev
	}
	return &crossEvent{v: e}
}

// drainMail moves every mailbox record onto its destination queue, in
// fixed (src, dst) order. Runs single-threaded at barriers. The drain
// order is aesthetic — arrival order is pinned by the keys — but fixed
// order keeps even the queues' internal layouts identical run to run.
func (sh *sharding) drainMail() {
	for src := range sh.mail {
		row := sh.mail[src]
		for dst := range row {
			mb := &row[dst]
			for i := range mb.recs {
				r := &mb.recs[i]
				sh.deliverCross(r.l, r.p, r.at, r.key)
				r.l, r.p = nil, nil
			}
			mb.recs = mb.recs[:0]
		}
	}
}

// mergeViews folds every view's scalar counter deltas, buffer peak and
// the scheme's per-shard stat slots into the root. Runs single-threaded
// at barriers; add-and-zero semantics make the merge frequency
// unobservable.
func (sh *sharding) mergeViews() {
	root := sh.root
	for _, v := range sh.views {
		root.C.mergeScalars(&v.C)
		root.bufPeak = max(root.bufPeak, v.bufPeak)
	}
	if sh.aware != nil {
		sh.aware.SyncShards()
	}
}

// minPeek returns the earliest pending event time across all domains.
func (sh *sharding) minPeek() (simtime.Time, bool) {
	var best simtime.Time
	found := false
	for _, q := range sh.qs {
		if t, ok := q.PeekTime(); ok && (!found || t < best) {
			best, found = t, true
		}
	}
	return best, found
}

// runWindow dispatches every domain's events in [now, end), in parallel
// when more than one worker is configured. The WaitGroup barrier gives
// the happens-before edge that publishes each domain's writes (queue
// state, mailboxes, counters) to the barrier thread and to whichever
// worker claims the domain next window.
func (sh *sharding) runWindow(end simtime.Time) {
	if sh.workers <= 1 {
		for d, q := range sh.qs {
			sh.domEvents[d] += int64(q.RunBefore(end))
		}
		return
	}
	sh.windowEnd = end
	atomic.StoreInt32(&sh.claim, 0)
	n := sh.workers
	if n > sh.nDom {
		n = sh.nDom
	}
	sh.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			// Done publishes this worker's writes to wg.Wait. nDom and
			// windowEnd are frozen before the workers start and read-only
			// until wg.Wait returns; the atomic claim counter hands domain
			// d to exactly one worker, which owns qs[d] and domEvents[d]
			// until that barrier.
			defer sh.wg.Done()
			for {
				d := int(atomic.AddInt32(&sh.claim, 1)) - 1
				if d >= sh.nDom {
					return
				}
				sh.domEvents[d] += int64(sh.qs[d].RunBefore(sh.windowEnd))
			}
		}()
	}
	sh.wg.Wait()
}

// stepOracle is the serial reference loop: dispatch the globally
// earliest event (by time, then tie-break key, then domain index) one
// at a time until the window is exhausted. No windows-within-windows,
// no mailbox batching — cross-domain arrivals were inserted eagerly by
// post. Byte-identity with runWindow is the proof that the conservative
// protocol is exact.
func (sh *sharding) stepOracle(end simtime.Time) {
	for {
		best := -1
		var bt simtime.Time
		var bk uint64
		for d, q := range sh.qs {
			t, k, ok := q.PeekKey()
			if !ok || t >= end {
				continue
			}
			if best < 0 || t < bt || (t == bt && k < bk) {
				best, bt, bk = d, t, k
			}
		}
		if best < 0 {
			return
		}
		sh.qs[best].Step()
		sh.domEvents[best]++
	}
}

// runSharded is the sharded engine's Run loop: barrier rounds of
// (drain mailboxes, merge views, apply due barrier ops and take due
// telemetry samples in time order, run one lookahead window in
// parallel). Windows are capped at the next barrier op and the next
// sampling instant so both happen at exactly their scheduled position
// in the event stream. The loop is single-threaded except inside
// runWindow.
func (e *Engine) runSharded(horizon simtime.Time) {
	sh := e.shard
	sh.build()
	prof := e.Prof
	var startEvents int64
	for _, n := range sh.domEvents {
		startEvents += n
	}
	hEnd := horizon + 1 // events AT the horizon run; later ones stay pending
	if hEnd < horizon {
		hEnd = horizon // run-to-drain (horizon == simtime.Never): don't overflow
	}
	for {
		sh.drainMail()
		sh.mergeViews()
		t, ok := sh.minPeek()
		// Due ops and ticks run one at a time in time order, an op
		// before a tick at the same instant. An op may schedule events,
		// so the queues are peeked again after each one.
		for {
			opDue := len(sh.barrier) > 0 && sh.barrier[0].at <= horizon && (!ok || sh.barrier[0].at <= t)
			tickDue := ok && sh.sampler != nil && sh.nextTick <= t && sh.nextTick <= horizon
			if opDue && (!tickDue || sh.barrier[0].at <= sh.nextTick) {
				op := sh.barrier[0]
				copy(sh.barrier, sh.barrier[1:])
				sh.barrier = sh.barrier[:len(sh.barrier)-1]
				if op.at > sh.now {
					sh.now = op.at
				}
				op.fn()
				t, ok = sh.minPeek()
			} else if tickDue {
				sh.now = sh.nextTick
				sh.sampler(sh.nextTick)
				sh.nextTick = sh.nextTick.Add(sh.sampleIv)
			} else {
				break
			}
		}
		if !ok || t > horizon {
			break
		}
		if t > sh.now {
			sh.now = t
		}
		end := t.Add(sh.lookahead)
		if end > hEnd {
			end = hEnd
		}
		if len(sh.barrier) > 0 && sh.barrier[0].at < end {
			end = sh.barrier[0].at
		}
		if sh.sampler != nil && sh.nextTick < end {
			end = sh.nextTick
		}
		if prof != nil {
			depth := 0
			for _, q := range sh.qs {
				depth += q.Len()
			}
			if depth > prof.HeapHighWater {
				prof.HeapHighWater = depth
			}
		}
		if sh.oracle {
			sh.stepOracle(end)
		} else {
			sh.runWindow(end)
		}
	}
	// One trailing sample after the event stream drains, mirroring the
	// serial collector's final self-scheduled tick.
	if sh.sampler != nil && sh.nextTick <= horizon {
		if sh.nextTick > sh.now {
			sh.now = sh.nextTick
		}
		sh.sampler(sh.nextTick)
		sh.nextTick = sh.nextTick.Add(sh.sampleIv)
	}
	if prof != nil {
		var total int64
		for _, n := range sh.domEvents {
			total += n
		}
		prof.Events += total - startEvents
		prof.ShardEvents = append(prof.ShardEvents[:0], sh.domEvents...)
	}
}
