package baselines

import (
	"switchv2p/internal/core"
	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

// This file implements the host-cache scheme family — the ONCache-style
// competing design point: overlay translations cached at the *host* fast
// path rather than in switches.
//
//   - HostCache: a bounded per-host translation cache with miss-to-
//     gateway. Unlike OnDemand (unbounded cache, packet stalled at the
//     host during rule installation) the first packet detours via a
//     translation gateway while the mapping is installed asynchronously,
//     and the cache has finite capacity with LRU replacement and an
//     optional TTL. The container-crossover experiment sweeps the
//     capacity (the cache fraction); the TTL is off unless
//     harness.Config.HostTTL sets it.
//   - HostToR: the hybrid tier — the same host cache layered in front of
//     a ToR-only SwitchV2P deployment, with the paper's invalidation
//     protocol extended to the host layer (see PROTOCOL.md "Host-layer
//     invalidation").

// hostSlot is one entry of a hostTable; slots form an intrusive
// doubly-linked LRU list by index.
type hostSlot struct {
	vip        netaddr.VIP
	pip        netaddr.PIP
	at         simtime.Time // install time, for TTL expiry
	prev, next int32
}

// hostTable is a bounded per-host VIP→PIP translation table with LRU
// replacement. All storage is allocated at construction; lookups and
// LRU maintenance are allocation-free.
type hostTable struct {
	capacity   int
	index      map[netaddr.VIP]int32
	slots      []hostSlot
	head, tail int32 // MRU head, LRU tail; -1 when empty
	used       int
	free       []int32 // slots vacated by invalidation/expiry
}

func newHostTable(capacity int) hostTable {
	t := hostTable{capacity: capacity, head: -1, tail: -1}
	if capacity > 0 {
		t.index = make(map[netaddr.VIP]int32, capacity)
		t.slots = make([]hostSlot, capacity)
		t.free = make([]int32, 0, capacity)
	}
	return t
}

// lookup returns the cached translation and its install time, promoting
// the entry to MRU.
func (t *hostTable) lookup(vip netaddr.VIP) (netaddr.PIP, simtime.Time, bool) {
	i, ok := t.index[vip]
	if !ok {
		return 0, 0, false
	}
	t.moveToFront(i)
	s := &t.slots[i]
	return s.pip, s.at, true
}

func (t *hostTable) moveToFront(i int32) {
	if t.head == i {
		return
	}
	t.unlink(i)
	t.pushFront(i)
}

func (t *hostTable) unlink(i int32) {
	s := &t.slots[i]
	if s.prev >= 0 {
		t.slots[s.prev].next = s.next
	} else {
		t.head = s.next
	}
	if s.next >= 0 {
		t.slots[s.next].prev = s.prev
	} else {
		t.tail = s.prev
	}
	s.prev, s.next = -1, -1
}

func (t *hostTable) pushFront(i int32) {
	s := &t.slots[i]
	s.prev, s.next = -1, t.head
	if t.head >= 0 {
		t.slots[t.head].prev = i
	}
	t.head = i
	if t.tail < 0 {
		t.tail = i
	}
}

// insert installs (or refreshes) a translation, evicting the LRU entry
// when the table is full. Reports whether a valid entry was displaced.
func (t *hostTable) insert(vip netaddr.VIP, pip netaddr.PIP, now simtime.Time) (evicted bool) {
	if t.capacity == 0 {
		return false
	}
	if i, ok := t.index[vip]; ok {
		s := &t.slots[i]
		s.pip, s.at = pip, now
		t.moveToFront(i)
		return false
	}
	var i int32
	switch {
	case len(t.free) > 0:
		i = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
	case t.used < t.capacity:
		i = int32(t.used)
		t.used++
	default:
		i = t.tail
		t.unlink(i)
		delete(t.index, t.slots[i].vip)
		evicted = true
	}
	t.slots[i] = hostSlot{vip: vip, pip: pip, at: now, prev: -1, next: -1}
	t.pushFront(i)
	t.index[vip] = i
	return evicted
}

// remove drops the entry outright (TTL expiry).
func (t *hostTable) remove(vip netaddr.VIP) {
	i, ok := t.index[vip]
	if !ok {
		return
	}
	t.unlink(i)
	delete(t.index, vip)
	t.free = append(t.free, i)
}

// invalidate drops the entry only if it still points at the stale
// location, mirroring the switch-layer protocol's targeted
// (VIP, stale PIP) invalidation.
func (t *hostTable) invalidate(vip netaddr.VIP, stale netaddr.PIP) bool {
	i, ok := t.index[vip]
	if !ok || t.slots[i].pip != stale {
		return false
	}
	t.unlink(i)
	delete(t.index, vip)
	t.free = append(t.free, i)
	return true
}

func (t *hostTable) len() int { return len(t.index) }

// HostTierOptions parameterizes the host-cache tier shared by HostCache
// and HostToR.
type HostTierOptions struct {
	// PerHost is each host table's capacity in entries.
	PerHost int
	// TTL expires entries this long after installation (0 = never): the
	// pluggable coarse defense against migration staleness when no
	// invalidation reaches the sender.
	TTL simtime.Duration
	// InstallLatency is the delay between a host-cache miss and the
	// mapping landing in the sender's table (the vswitch/eBPF map update
	// latency; the first packet is already on its slow-path detour).
	InstallLatency simtime.Duration
}

// DefaultHostTierOptions mirrors OnDemand's §5 rule-installation
// latency; entries do not expire unless a TTL is configured.
func DefaultHostTierOptions(perHost int) HostTierOptions {
	return HostTierOptions{PerHost: perHost, InstallLatency: 40 * simtime.Microsecond}
}

// HostStats counts host-tier cache activity.
type HostStats struct {
	Lookups, Hits, Misses int64
	Installs, Evictions   int64
	Learned               int64 // receive-side installs at the destination ToR
	Expired               int64 // TTL expiries observed at lookup
	Invalidations         int64 // stale entries dropped by host-layer invalidation
	InvalidationsSent     int64 // misdeliveries that triggered a sender notification
}

// hostTier is the per-host translation-cache layer shared by HostCache
// and HostToR: bounded LRU tables, asynchronous slow-path installation,
// TTL expiry, and host-layer invalidation driven by misdeliveries.
type hostTier struct {
	opt    HostTierOptions
	tables []hostTable
	// pending dedupes in-flight slow-path installs. It is indexed by
	// host but written from install-completion closures that run after
	// the slow-path delay, outside the originating event's slot. The
	// tables are written across slots too (receive-side learning from
	// the ToR's event, invalidation from the stale host's), which is why
	// the host-cache family is not on harness.ShardSupported's
	// whitelist and runs on the serial engine.
	pending []map[netaddr.VIP]struct{}

	HS HostStats // aggregate stats, read only after the run
}

func newHostTier(topo *topology.Topology, opt HostTierOptions) hostTier {
	tables := make([]hostTable, len(topo.Hosts))
	for i := range tables {
		tables[i] = newHostTable(opt.PerHost)
	}
	return hostTier{
		opt:     opt,
		tables:  tables,
		pending: make([]map[netaddr.VIP]struct{}, len(topo.Hosts)),
	}
}

// resolve consults the sender's host table; on a hit the packet is
// resolved in place. TTL-expired entries are dropped and count as
// misses.
func (t *hostTier) resolve(e *simnet.Engine, host int32, p *packet.Packet) bool {
	t.HS.Lookups++
	pip, at, ok := t.tables[host].lookup(p.DstVIP)
	if ok && t.opt.TTL > 0 && e.Now().Sub(at) > t.opt.TTL {
		t.tables[host].remove(p.DstVIP)
		t.HS.Expired++
		ok = false
	}
	if !ok {
		t.HS.Misses++
		return false
	}
	p.DstPIP = pip
	p.Resolved = true
	t.HS.Hits++
	return true
}

// scheduleInstall asks the control plane to install the mapping into the
// sender's table after the install latency. At most one installation is
// in flight per (host, VIP); the data packet is already on its slow
// path, so this is purely a cache-fill side effect (cold path).
func (t *hostTier) scheduleInstall(e *simnet.Engine, host int32, vip netaddr.VIP) {
	if t.opt.PerHost == 0 {
		return
	}
	if t.pending[host] == nil {
		t.pending[host] = make(map[netaddr.VIP]struct{})
	}
	if _, inFlight := t.pending[host][vip]; inFlight {
		return
	}
	t.pending[host][vip] = struct{}{}
	e.Q.After(t.opt.InstallLatency, func() {
		delete(t.pending[host], vip)
		pip, ok := e.Net.Lookup(vip)
		if !ok {
			return // the VM departed while the install was in flight
		}
		t.HS.Installs++
		if t.tables[host].insert(vip, pip, e.Now()) {
			t.HS.Evictions++
		}
	})
}

// learnAtToR is receive-side learning: when a resolved tenant packet
// crosses its last-hop ToR, the destination host snoops the sender's
// translation from the outer header and installs it — ONCache learns
// from incoming traffic, so the reverse direction (responses, ACKs) hits
// without ever paying a gateway detour. Runs on every switch arrival.
func (t *hostTier) learnAtToR(e *simnet.Engine, sw int32, p *packet.Packet) {
	if t.opt.PerHost == 0 || !p.Resolved {
		return
	}
	switch p.Kind {
	case packet.Data, packet.Ack:
	default:
		return
	}
	dst, ok := e.Topo.HostByPIP(p.DstPIP)
	if !ok || e.Topo.Hosts[dst].ToR != sw || e.Topo.Hosts[dst].Gateway {
		return
	}
	t.HS.Learned++
	if t.tables[dst].insert(p.SrcVIP, p.SrcPIP, e.Now()) {
		t.HS.Evictions++
	}
}

// invalidateSender is the host-layer invalidation protocol: the old host
// observes a misdelivered packet, reads the sender from the outer
// header, and notifies it to drop the (VIP → old host) entry — the same
// targeted (VIP, stale PIP) pairing the switch-layer protocol uses, so
// a concurrent re-install of the fresh mapping is never clobbered.
func (t *hostTier) invalidateSender(e *simnet.Engine, staleHost int32, p *packet.Packet) {
	sender, ok := e.Topo.HostByPIP(p.SrcPIP)
	if !ok {
		return
	}
	t.HS.InvalidationsSent++
	if t.tables[sender].invalidate(p.DstVIP, e.Topo.Hosts[staleHost].PIP) {
		t.HS.Invalidations++
	}
}

// HostTableLen exposes a host table's occupancy for tests and probes.
func (t *hostTier) HostTableLen(host int32) int { return t.tables[host].len() }

// HostStats exposes the tier's counters.
func (t *hostTier) HostStats() *HostStats { return &t.HS }

// HostEntry exposes a host's cached translation for tests.
func (t *hostTier) HostEntry(host int32, vip netaddr.VIP) (netaddr.PIP, bool) {
	i, ok := t.tables[host].index[vip]
	if !ok {
		return 0, false
	}
	return t.tables[host].slots[i].pip, true
}

// HostCache is the ONCache-style host-resident design: every sender
// keeps a bounded LRU translation cache; misses detour the packet via a
// translation gateway (miss-to-gateway) while the mapping is installed
// asynchronously. Switches are passive. Migration staleness is repaired
// by host-layer invalidation (the old host notifies the sender) plus the
// optional TTL.
type HostCache struct {
	hostTier
}

// NewHostCache builds the scheme.
func NewHostCache(topo *topology.Topology, opt HostTierOptions) *HostCache {
	return &HostCache{hostTier: newHostTier(topo, opt)}
}

// Name implements simnet.Scheme.
func (*HostCache) Name() string { return "HostCache" }

// SenderResolve implements simnet.Scheme: host-cache hit → direct;
// miss → gateway detour plus an asynchronous cache fill.
func (h *HostCache) SenderResolve(e *simnet.Engine, host int32, p *packet.Packet) bool {
	if p.Resolved {
		return true
	}
	if h.resolve(e, host, p) {
		return true
	}
	h.scheduleInstall(e, host, p.DstVIP)
	p.DstPIP = e.GatewayFor(p.SrcPIP, p.FlowID)
	return true
}

// SwitchArrive implements simnet.Scheme: switches hold no state, but the
// destination host's receive-side learning fires at its last-hop ToR.
func (h *HostCache) SwitchArrive(e *simnet.Engine, sw int32, from topology.NodeRef, p *packet.Packet) bool {
	h.learnAtToR(e, sw, p)
	return true
}

// HostMisdeliver implements simnet.Scheme: invalidate the sender's stale
// entry (host-layer invalidation), then recover the packet via the
// follow-me rule or a gateway like the other host-driven designs.
func (h *HostCache) HostMisdeliver(e *simnet.Engine, host int32, p *packet.Packet) {
	h.invalidateSender(e, host, p)
	followMe(e, host, p)
}

// FlushCache implements simnet.Scheme. HostCache keeps all
// translation state in the hosts: a switch failure destroys no scheme
// state, so there is nothing to flush (host tables survive exactly as
// ONCache's eBPF maps survive a ToR reboot).
func (*HostCache) FlushCache(int32) {}

// HostToR is the hybrid tier: the host cache in front of a ToR-only
// SwitchV2P deployment. Host hits bypass the network-side machinery
// entirely; misses take SwitchV2P's gateway-driven slow path, where the
// ToR caches can still resolve the packet in-flight, and the mapping is
// installed into the sender's host table asynchronously. Misdeliveries
// run both invalidation layers: the host layer notifies the sender, the
// switch layer tags the packet so the ToR protocol invalidates stale
// switch entries (PROTOCOL.md "Host-layer invalidation").
type HostToR struct {
	*core.Scheme
	hostTier
}

// NewHostToR builds the hybrid: SwitchV2P options for the ToR tier (size
// the caches with core.AllocToROnly for a ToR-only deployment) plus the
// host-tier options.
func NewHostToR(topo *topology.Topology, opts core.Options, hostOpt HostTierOptions) *HostToR {
	return &HostToR{
		Scheme:   core.New(topo, opts),
		hostTier: newHostTier(topo, hostOpt),
	}
}

// Name implements simnet.Scheme.
func (*HostToR) Name() string { return "HostToR" }

// SenderResolve implements simnet.Scheme: host tier first, then
// SwitchV2P's gateway-driven resolution.
func (h *HostToR) SenderResolve(e *simnet.Engine, host int32, p *packet.Packet) bool {
	if p.Resolved {
		return true
	}
	if h.resolve(e, host, p) {
		return true
	}
	h.scheduleInstall(e, host, p.DstVIP)
	return h.Scheme.SenderResolve(e, host, p)
}

// SwitchArrive implements simnet.Scheme: receive-side host learning at
// the destination ToR, then SwitchV2P's switch-layer protocol.
func (h *HostToR) SwitchArrive(e *simnet.Engine, sw int32, from topology.NodeRef, p *packet.Packet) bool {
	h.learnAtToR(e, sw, p)
	return h.Scheme.SwitchArrive(e, sw, from, p)
}

// HostMisdeliver implements simnet.Scheme: both invalidation layers,
// then SwitchV2P's gateway re-forwarding with the misdelivery tag.
func (h *HostToR) HostMisdeliver(e *simnet.Engine, host int32, p *packet.Packet) {
	h.invalidateSender(e, host, p)
	h.Scheme.HostMisdeliver(e, host, p)
}

// FlushCache is promoted from the embedded *core.Scheme: a switch
// failure flushes that switch's ToR cache and protocol state; the host
// tables are host-resident and deliberately survive.

var (
	_ simnet.Scheme = (*HostCache)(nil)
	_ simnet.Scheme = (*HostToR)(nil)
)
