package baselines

import (
	"switchv2p/internal/core"
	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

// BluebirdParams are the slow-path parameters from the Bluebird paper,
// as used in §5: a 20 Gbps data-to-control-plane link, 8.5 µs
// control-plane forwarding latency, and 2 ms cache-insertion latency.
type BluebirdParams struct {
	CPLinkBps        int64
	CPForwardLatency simtime.Duration
	CacheInsertDelay simtime.Duration
	// CPQueueBytes bounds the DP->CP queue; excess packets are dropped
	// (the bandwidth-limited link is Bluebird's bottleneck in §5.1).
	CPQueueBytes int
}

// DefaultBluebirdParams returns the paper's parameters.
func DefaultBluebirdParams() BluebirdParams {
	return BluebirdParams{
		CPLinkBps:        20e9,
		CPForwardLatency: simtime.Duration(8500),
		CacheInsertDelay: 2 * simtime.Millisecond,
		CPQueueBytes:     1 << 20,
	}
}

// bluebirdCP models one ToR's switch control plane (SFE): a serializing
// 20 Gbps link with a bounded queue, a fixed forwarding latency, and
// delayed cache insertion.
type bluebirdCP struct {
	busyUntil   simtime.Time
	queuedBytes int
	// gen counts FlushCache calls: work queued under an older generation
	// was lost with the control plane that held it.
	gen uint32
}

// Bluebird resolves addresses in the ToR data plane when the route cache
// hits; otherwise the packet takes the control-plane slow path, which
// also installs the mapping (after the insertion delay). There are no
// translation gateways.
type Bluebird struct {
	topo   *topology.Topology
	params BluebirdParams
	caches []*core.Cache // route caches, ToRs only
	cp     []bluebirdCP  // per-ToR control plane

	// Stats: aggregate counters, only read after the run; increments
	// cannot influence scheduling. They are plain shared fields, so
	// Bluebird (like every scheme off harness.ShardSupported's
	// whitelist) runs on the serial engine. Every CP drop is also one of
	// the engine's Drops, made by Engine.Drop.
	Hits, Misses int64
	CPDrops      int64
	CPForwarded  int64
}

// NewBluebird builds the baseline with the given per-ToR route-cache
// size.
func NewBluebird(topo *topology.Topology, linesPerToR int, params BluebirdParams) *Bluebird {
	b := &Bluebird{topo: topo, params: params}
	b.caches = make([]*core.Cache, len(topo.Switches))
	b.cp = make([]bluebirdCP, len(topo.Switches))
	for i, sw := range topo.Switches {
		lines := 0
		if sw.Role.IsToR() {
			lines = linesPerToR
		}
		b.caches[i] = core.NewCache(lines)
	}
	return b
}

// Name implements simnet.Scheme.
func (*Bluebird) Name() string { return "Bluebird" }

// FlushCache implements simnet.Scheme: a failed ToR loses its
// route cache and whatever work its local control plane had queued (the
// packets of that work are dropped when their completions come due).
func (b *Bluebird) FlushCache(sw int32) {
	b.caches[sw].Flush()
	b.cp[sw] = bluebirdCP{gen: b.cp[sw].gen + 1}
}

// SenderResolve implements simnet.Scheme: hosts leave packets unresolved
// with no outer destination; the first-hop ToR owns resolution.
func (*Bluebird) SenderResolve(e *simnet.Engine, host int32, p *packet.Packet) bool { return true }

// SwitchArrive implements simnet.Scheme.
func (b *Bluebird) SwitchArrive(e *simnet.Engine, sw int32, from topology.NodeRef, p *packet.Packet) bool {
	switch p.Kind {
	case packet.Data, packet.Ack:
	default:
		return true
	}
	if p.Resolved {
		return true
	}
	role := b.topo.Switches[sw].Role
	if !role.IsToR() {
		// Unresolved packets never get past the first-hop ToR.
		return true
	}
	cache := b.caches[sw]
	if pip, hit, _ := cache.Lookup(p.DstVIP); hit && pip != p.StalePIP {
		p.DstPIP = pip
		p.Resolved = true
		b.Hits++
		return true
	}
	b.Misses++
	b.slowPath(e, sw, p)
	return false // consumed: the CP re-injects it
}

// slowPath queues the packet on the DP->CP link, held by the engine
// until the control plane has forwarded it (HoldDone), and schedules the
// cache insertion.
func (b *Bluebird) slowPath(e *simnet.Engine, sw int32, p *packet.Packet) {
	cp := &b.cp[sw]
	size := p.Size()
	if cp.queuedBytes+size > b.params.CPQueueBytes {
		b.cpDrop(e, p)
		return
	}
	cp.queuedBytes += size
	now := e.Now()
	start := cp.busyUntil
	if start < now {
		start = now
	}
	done := start.Add(simtime.TransmitTime(size, b.params.CPLinkBps))
	cp.busyUntil = done
	vip := p.DstVIP // read before Hold hands p on
	e.Hold(done.Add(b.params.CPForwardLatency), sw, p, cp.gen)
	// The cache entry becomes visible after the insertion latency, with
	// the mapping as known then. By then the packet was re-injected and
	// delivered long ago, so the closure keeps the VIP, not the packet.
	e.Q.After(b.params.CacheInsertDelay, func() {
		if pip, ok := e.Net.Lookup(vip); ok {
			b.caches[sw].Insert(netaddr.Mapping{VIP: vip, PIP: pip})
		}
	})
}

// HoldDone implements simnet.Holder: p, queued at ToR sw's control
// plane under flush generation gen, has crossed the DP->CP link and been
// resolved, and is re-injected.
func (b *Bluebird) HoldDone(e *simnet.Engine, sw int32, p *packet.Packet, gen uint32) {
	cp := &b.cp[sw]
	if cp.gen != gen {
		b.cpDrop(e, p) // queued before a flush: lost with the old control plane
		return
	}
	cp.queuedBytes -= p.Size()
	pip, ok := e.Net.Lookup(p.DstVIP)
	if !ok {
		b.cpDrop(e, p)
		return
	}
	b.CPForwarded++
	p.DstPIP = pip
	p.Resolved = true
	e.InjectFromSwitch(sw, p)
}

// cpDrop drops a tenant packet lost on the slow path, counted in the
// scheme's own counter as well as the engine's.
func (b *Bluebird) cpDrop(e *simnet.Engine, p *packet.Packet) {
	b.CPDrops++
	e.Drop(p)
}

// HostMisdeliver implements simnet.Scheme.
func (b *Bluebird) HostMisdeliver(e *simnet.Engine, host int32, p *packet.Packet) {
	p.StalePIP = e.Topo.Hosts[host].PIP
	followMe(e, host, p)
}
