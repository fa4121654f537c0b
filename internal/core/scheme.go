package core

import (
	"math/rand"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/vnet"
)

// Options configures the SwitchV2P protocol. Every mechanism can be
// toggled independently for the paper's ablations (Table 4 variants,
// §5.3 topology-aware caching analysis).
type Options struct {
	// LinesPerSwitch is the per-switch cache size in entries. The paper
	// reports cache size as aggregate memory over all switches; the
	// harness divides it evenly.
	LinesPerSwitch int

	// SizeFor, when non-nil, overrides LinesPerSwitch per switch
	// (heterogeneous allocations, e.g. a ToR-only cache).
	SizeFor func(sw topology.Switch) int

	// PLearn is the probability that a gateway ToR generates a learning
	// packet upon learning a new mapping (§3.2.2; the evaluation uses
	// 0.5% of gateway-switch traffic).
	PLearn float64

	// LearningPackets enables gateway-ToR learning packet generation.
	LearningPackets bool
	// Spillover enables appending evicted entries to processed packets.
	Spillover bool
	// Promotion enables spine-to-core promotion of popular entries.
	Promotion bool
	// Invalidation enables targeted invalidation packets from ToRs.
	Invalidation bool
	// TimestampVector enables the per-ToR invalidation rate limiter.
	TimestampVector bool

	// Tenancy, when non-nil, partitions every switch's cache among VPCs
	// and gates which tenants are cached at all (§4).
	Tenancy *Tenancy

	// Seed drives the learning-packet coin flips.
	Seed int64
}

// DefaultOptions returns the full SwitchV2P configuration used in the
// evaluation: all mechanisms on, P_learn = 0.5%.
func DefaultOptions(linesPerSwitch int) Options {
	return Options{
		LinesPerSwitch:  linesPerSwitch,
		PLearn:          0.005,
		LearningPackets: true,
		Spillover:       true,
		Promotion:       true,
		Invalidation:    true,
		TimestampVector: true,
		Seed:            1,
	}
}

// Layer indices for hit attribution (Table 5).
const (
	LayerToR = iota
	LayerSpine
	LayerCore
	numLayers
)

// Stats aggregates protocol-level measurements.
type Stats struct {
	Lookups int64
	Hits    int64

	HitsByLayer      [numLayers]int64 // all cache hits, by switch layer
	FirstHitsByLayer [numLayers]int64 // hits by flows' first data packets
	LookupsByLayer   [numLayers]int64 // all lookups, by switch layer
	EvictionsByLayer [numLayers]int64 // valid entries displaced by insertions

	LearningSent            int64 // learning packets generated
	InvalidationsSent       int64 // invalidation packets generated
	InvalidationsSuppressed int64 // suppressed by the timestamp vector
	EntriesInvalidated      int64 // cache lines removed by tags/packets
	MisdeliveryTagged       int64 // packets tagged by ToRs
	SpillAttached           int64 // evicted entries attached to packets
	SpillInserted           int64 // spilled entries re-inserted downstream
	PromoteAttached         int64 // promotions attached by spines
	PromoteInserted         int64 // promotions accepted by cores
}

func layerOf(r topology.SwitchRole) int {
	switch {
	case r.IsToR():
		return LayerToR
	case r.IsSpine():
		return LayerSpine
	default:
		return LayerCore
	}
}

// Scheme is the SwitchV2P data-plane protocol: one direct-mapped cache
// per switch plus the per-role admission policies and special functions
// of Table 1. It implements simnet.Scheme.
type Scheme struct {
	opts         Options
	topo         *topology.Topology
	roles        []topology.SwitchRole // current role per switch (dynamic, §4)
	caches       []*Cache
	tenantCaches []map[vnet.TenantID]*Cache // non-nil iff opts.Tenancy set
	// tsVec is the invalidation timestamp vector, indexed by switch with
	// the inner vector allocated lazily per ToR: tsVec[tor][target] is
	// the last time tor sent an invalidation to target (§3.3). A dense
	// outer slice (not a map) so concurrent shards touching different
	// ToRs never mutate shared map internals.
	tsVec [][]simtime.Time
	rng   *rand.Rand

	// Sharded-engine state (simnet.ShardAware): with slots non-nil every
	// hot-path stat mutation goes to slots[Engine.ShardSlot()] and every
	// learning coin flip to the matching rngs entry; SyncShards folds the
	// slot deltas into S at barriers. Nil slots (the serial engine)
	// preserve the original single-stream behavior exactly.
	slots []Stats
	rngs  []*rand.Rand

	S Stats
}

// New builds a SwitchV2P scheme over the topology.
func New(topo *topology.Topology, opts Options) *Scheme {
	s := &Scheme{
		opts:  opts,
		topo:  topo,
		tsVec: make([][]simtime.Time, len(topo.Switches)),
		rng:   rand.New(rand.NewSource(opts.Seed)),
	}
	s.roles = make([]topology.SwitchRole, len(topo.Switches))
	for i, sw := range topo.Switches {
		s.roles[i] = sw.Role
	}
	if opts.Tenancy != nil {
		s.tenantCaches = buildTenantCaches(topo, opts)
		return s
	}
	s.caches = make([]*Cache, len(topo.Switches))
	for i, sw := range topo.Switches {
		lines := opts.LinesPerSwitch
		if opts.SizeFor != nil {
			lines = opts.SizeFor(sw)
		}
		s.caches[i] = NewCache(lines)
	}
	return s
}

// Name implements simnet.Scheme.
func (s *Scheme) Name() string { return "SwitchV2P" }

// Stats returns the live protocol stats; the telemetry sampler reads
// them as windowed rates while the simulation runs. (Promoted into
// GwCache, which embeds *Scheme.)
func (s *Scheme) Stats() *Stats { return &s.S }

// Cache exposes a switch's (single-tenant) cache for tests and
// analysis; with tenancy enabled use TenantCache instead.
func (s *Scheme) Cache(sw int32) *Cache {
	if s.caches == nil {
		return zeroCache
	}
	return s.caches[sw]
}

// FlushCache implements simnet.Scheme: a failed switch loses all
// per-switch protocol state — its mapping cache (every tenant's cache
// under tenancy) and, for ToRs, the invalidation timestamp vector. On
// recovery the switch re-learns transparently from passing traffic.
func (s *Scheme) FlushCache(sw int32) {
	if s.caches != nil {
		s.caches[sw].Flush()
	}
	if s.tenantCaches != nil {
		// Order-independent: flushing each tenant cache touches no
		// shared or ordered state.
		for _, c := range s.tenantCaches[sw] {
			c.Flush()
		}
	}
	if int(sw) < len(s.tsVec) {
		s.tsVec[sw] = nil
	}
}

// SetShardSlots implements simnet.ShardAware: allocate one stat slot and
// one learning-coin PRNG per shard domain. Each domain's PRNG seed is a
// pure function of (Options.Seed, domain), so coin flips are
// deterministic at any worker count (though the flip stream differs
// from the serial engine's single PRNG — sharded runs are their own
// determinism class, byte-identical across shard counts).
func (s *Scheme) SetShardSlots(n int) {
	s.slots = make([]Stats, n)
	s.rngs = make([]*rand.Rand, n)
	for i := range s.rngs {
		s.rngs[i] = rand.New(rand.NewSource(s.opts.Seed + int64(i+1)*0x5851F42D))
	}
}

// SyncShards implements simnet.ShardAware: fold every per-shard stat
// delta into the aggregate S. Runs single-threaded at shard barriers;
// every Stats field is a sum, so add-and-zero makes the barrier
// frequency unobservable.
func (s *Scheme) SyncShards() {
	for i := range s.slots {
		s.S.add(&s.slots[i])
		s.slots[i] = Stats{}
	}
}

// add accumulates o into s (all fields are sums).
func (s *Stats) add(o *Stats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	for i := 0; i < numLayers; i++ {
		s.HitsByLayer[i] += o.HitsByLayer[i]
		s.FirstHitsByLayer[i] += o.FirstHitsByLayer[i]
		s.LookupsByLayer[i] += o.LookupsByLayer[i]
		s.EvictionsByLayer[i] += o.EvictionsByLayer[i]
	}
	s.LearningSent += o.LearningSent
	s.InvalidationsSent += o.InvalidationsSent
	s.InvalidationsSuppressed += o.InvalidationsSuppressed
	s.EntriesInvalidated += o.EntriesInvalidated
	s.MisdeliveryTagged += o.MisdeliveryTagged
	s.SpillAttached += o.SpillAttached
	s.SpillInserted += o.SpillInserted
	s.PromoteAttached += o.PromoteAttached
	s.PromoteInserted += o.PromoteInserted
}

// stats returns the Stats the current event must mutate: the engine's
// shard slot when sharded, the aggregate otherwise.
func (s *Scheme) stats(e *simnet.Engine) *Stats {
	if s.slots == nil {
		return &s.S
	}
	return &s.slots[e.ShardSlot()]
}

// rngFor returns the learning-coin PRNG for the current event's shard
// (the single scheme PRNG on the serial engine).
func (s *Scheme) rngFor(e *simnet.Engine) *rand.Rand {
	if s.rngs == nil {
		return s.rng
	}
	return s.rngs[e.ShardSlot()]
}

// SenderResolve implements simnet.Scheme: SwitchV2P keeps the
// gateway-driven sending path — hosts always address a translation
// gateway; resolution happens opportunistically in the network.
func (s *Scheme) SenderResolve(e *simnet.Engine, host int32, p *packet.Packet) bool {
	if !p.Resolved {
		p.DstPIP = e.GatewayFor(p.SrcPIP, p.FlowID)
	}
	return true
}

// HostMisdeliver implements simnet.Scheme: the hypervisor re-forwards a
// packet it cannot deliver to a translation gateway (§3.3); the ToR will
// tag it on the way.
func (s *Scheme) HostMisdeliver(e *simnet.Engine, host int32, p *packet.Packet) {
	p.Resolved = false
	p.DstPIP = e.GatewayFor(p.SrcPIP, p.FlowID)
	e.Resend(host, p)
}

// SwitchArrive implements simnet.Scheme: the full per-switch pipeline.
func (s *Scheme) SwitchArrive(e *simnet.Engine, sw int32, from topology.NodeRef, p *packet.Packet) bool {
	role := s.roles[sw]
	cache := s.cacheFor(sw, p.VNI)
	st := s.stats(e)

	switch p.Kind {
	case packet.Learning:
		// Consumed (and learned, admission "All") by the ToR serving the
		// addressed host; forwarded untouched by switches en route.
		if host, ok := s.topo.HostByPIP(p.DstPIP); ok && s.topo.Hosts[host].ToR == sw {
			cache.Insert(p.Carried)
			return false
		}
		return true
	case packet.Invalidation:
		if cache.Invalidate(p.Carried.VIP, p.Carried.PIP) {
			st.EntriesInvalidated++
		}
		if target, ok := s.topo.SwitchByPIP(p.DstPIP); ok && target == sw {
			return false
		}
		return true
	}

	// --- tenant traffic (Data / Ack) ---

	// (1) Misdelivery tagging (§3.3): a ToR that receives, on a host-facing
	// port, a packet the attached server's hypervisor marked as re-forwarded
	// tags it with that server as the stale target. The mark, not the outer
	// source, says so: a sender on the stale host re-forwards with its own
	// outer source.
	if role.IsToR() && from.Kind == topology.KindHost {
		fromHost := &s.topo.Hosts[from.Idx]
		if !fromHost.Gateway && p.WasMisdelivered && p.StalePIP != fromHost.PIP {
			p.Misdelivered = true
			p.StalePIP = fromHost.PIP
			st.MisdeliveryTagged++
			if s.opts.Invalidation && p.HitSwitch != packet.NoSwitch {
				s.sendInvalidation(e, st, sw, p.HitSwitch, p.DstVIP, p.StalePIP, p.VNI)
			}
			p.HitSwitch = packet.NoSwitch
		}
	}

	// (2) Tagged packets invalidate matching stale entries on every switch
	// they traverse.
	if p.Misdelivered {
		if cache.Invalidate(p.DstVIP, p.StalePIP) {
			st.EntriesInvalidated++
		}
	}

	// (3) Lookup — only for unresolved packets (§3.1, §4: resolved packets
	// are never looked up).
	hitHere := false
	hitWasAccessed := false
	if !p.Resolved && cache.Len() > 0 {
		st.Lookups++
		st.LookupsByLayer[layerOf(role)]++
		if pip, hit, was := cache.Lookup(p.DstVIP); hit && pip != p.StalePIP {
			p.DstPIP = pip
			p.Resolved = true
			p.HitSwitch = int32(sw)
			hitHere, hitWasAccessed = true, was
			st.Hits++
			st.HitsByLayer[layerOf(role)]++
			if p.FirstSent && p.Kind == packet.Data {
				st.FirstHitsByLayer[layerOf(role)]++
			}
		}
	}

	// (4) Promotion consumption at cores (§3.2.2): cores learn only from
	// promotions, conservatively.
	if p.Promote.IsValid() && role == topology.RoleCore {
		if res := cache.InsertIfClear(p.Promote); res.Inserted {
			st.PromoteInserted++
			s.noteEvict(st, role, res.Evicted)
			s.spill(st, p, res.Evicted)
		}
		p.Promote = netaddr.Mapping{}
	}

	// (5) Spillover consumption: any switch may opportunistically adopt an
	// entry evicted upstream, never displacing an active entry.
	if p.Spill.IsValid() && s.opts.Spillover && cache.Len() > 0 {
		if res := cache.InsertIfClear(p.Spill); res.Inserted {
			st.SpillInserted++
			s.noteEvict(st, role, res.Evicted)
			p.Spill = res.Evicted // cascade (usually zero)
		}
	}

	// (6) Learning, per role (Table 1).
	switch role {
	case topology.RoleGatewayToR:
		if p.Resolved {
			m := netaddr.Mapping{VIP: p.DstVIP, PIP: p.DstPIP}
			res := cache.Insert(m)
			s.noteEvict(st, role, res.Evicted)
			s.spill(st, p, res.Evicted)
			if res.New && s.opts.LearningPackets && s.rngFor(e).Float64() < s.opts.PLearn {
				// Skip senders attached to this very switch: their ToR is
				// the gateway ToR, which has just learned the mapping via
				// destination learning — there is nowhere closer to move it.
				srcHost, ok := s.topo.HostByPIP(p.SrcPIP)
				if ok && s.topo.Hosts[srcHost].ToR != sw {
					lp := e.Packets().NewLearning(m, s.topo.Switches[sw].PIP, p.SrcPIP)
					lp.VNI = p.VNI
					st.LearningSent++
					e.InjectFromSwitch(sw, lp)
				}
			}
		}
	case topology.RoleToR:
		if m := (netaddr.Mapping{VIP: p.SrcVIP, PIP: p.SrcPIP}); m.IsValid() {
			res := cache.Insert(m)
			s.noteEvict(st, role, res.Evicted)
			s.spill(st, p, res.Evicted)
		}
	case topology.RoleSpine, topology.RoleGatewaySpine:
		if p.Resolved {
			res := cache.InsertIfClear(netaddr.Mapping{VIP: p.DstVIP, PIP: p.DstPIP})
			s.noteEvict(st, role, res.Evicted)
			s.spill(st, p, res.Evicted)
		}
	case topology.RoleCore:
		// Cores learn only from promotions, handled in (4).
	}

	// (7) Promotion generation (§3.2.2): a regular spine whose cache just
	// resolved a gateway-bound packet from an entry that was already in
	// active use promotes the entry to the core layer — but only when the
	// packet actually leaves the pod.
	if hitHere && hitWasAccessed && role == topology.RoleSpine && s.opts.Promotion && !p.Promote.IsValid() {
		if dstHost, ok := s.topo.HostByPIP(p.DstPIP); ok &&
			s.topo.Hosts[dstHost].Pod != s.topo.Switches[sw].Pod {
			p.Promote = netaddr.Mapping{VIP: p.DstVIP, PIP: p.DstPIP}
			st.PromoteAttached++
		}
	}

	return true
}

// noteEvict counts a displaced valid entry toward the per-layer
// eviction stats (st: see stats).
func (s *Scheme) noteEvict(st *Stats, role topology.SwitchRole, evicted netaddr.Mapping) {
	if evicted.IsValid() {
		st.EvictionsByLayer[layerOf(role)]++
	}
}

// spill attaches an evicted entry to the packet being processed if the
// spillover slot is free (§3.2.2 "Cache spillover").
func (s *Scheme) spill(st *Stats, p *packet.Packet, evicted netaddr.Mapping) {
	if s.opts.Spillover && evicted.IsValid() && !p.Spill.IsValid() {
		p.Spill = evicted
		st.SpillAttached++
	}
}

// sendInvalidation emits a targeted invalidation packet from ToR tor to
// the switch that served the stale hit, rate-limited by the timestamp
// vector: at most one invalidation per target per base RTT (§3.3).
func (s *Scheme) sendInvalidation(e *simnet.Engine, st *Stats, tor, target int32, vip netaddr.VIP, stale netaddr.PIP, vni uint32) {
	if s.opts.TimestampVector {
		// tor is always the switch processing the current event, so the
		// lazy inner allocation is owned by tor's shard.
		vec := s.tsVec[tor]
		if vec == nil {
			vec = make([]simtime.Time, len(s.topo.Switches))
			for i := range vec {
				vec[i] = -1
			}
			s.tsVec[tor] = vec
		}
		now := e.Now()
		if vec[target] >= 0 && now.Sub(vec[target]) < e.Cfg.BaseRTT {
			st.InvalidationsSuppressed++
			return
		}
		vec[target] = now
	}
	inv := e.Packets().NewInvalidation(vip, stale,
		s.topo.Switches[tor].PIP, s.topo.Switches[target].PIP)
	inv.VNI = vni
	st.InvalidationsSent++
	e.InjectFromSwitch(tor, inv)
}

// TotalCacheHitShare returns the share of hits per layer (Table 5 rows);
// all zeros when there were no hits.
func (s *Stats) TotalCacheHitShare() [numLayers]float64 {
	return share(s.HitsByLayer)
}

// FirstPacketHitShare returns the per-layer share of first-packet hits.
func (s *Stats) FirstPacketHitShare() [numLayers]float64 {
	return share(s.FirstHitsByLayer)
}

func share(counts [numLayers]int64) [numLayers]float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	var out [numLayers]float64
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// Role returns the switch's current protocol role (which may have been
// changed at runtime by a gateway migration, §4).
func (s *Scheme) Role(sw int32) topology.SwitchRole { return s.roles[sw] }

// SetRole changes a switch's protocol role at runtime — the
// control-plane operation the paper describes for gateway migration
// (§4 "Gateway migration"): the former gateway ToR transitions to
// standard ToR behavior and the new one takes over. Cache state is NOT
// migrated; it is rebuilt at the destination by the normal learning
// mechanisms.
func (s *Scheme) SetRole(sw int32, role topology.SwitchRole) { s.roles[sw] = role }
