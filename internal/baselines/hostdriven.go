package baselines

import (
	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

// OnDemand is the host-driven design with a first lookup at the gateway:
// VL2's on-demand resolution / Andromeda's Hoverboard with an immediate
// offload policy / Achelous ALM. The first packet to an unknown
// destination detours via a gateway while the mapping is installed into
// the sender's (unbounded) host cache after the miss penalty; subsequent
// packets go direct. The host caches are never proactively updated, so a
// migration leaves them stale until well after the event (§5.2 assumes
// the controller cannot refresh hosts within the experiment).
type OnDemand struct {
	// MissPenalty is the rule-installation latency charged on a host
	// cache miss (40 µs in §5).
	MissPenalty simtime.Duration

	// hostCache entries are installed when a held packet's miss penalty
	// elapses (HoldDone). The maps and the Stats below are plain shared
	// fields, so OnDemand (like every scheme off harness.ShardSupported's
	// whitelist) runs on the serial engine.
	hostCache []map[netaddr.VIP]netaddr.PIP

	// Stats: aggregate counters, read only after the run.
	HostHits, HostMisses int64
}

// NewOnDemand builds the baseline.
func NewOnDemand(topo *topology.Topology, missPenalty simtime.Duration) *OnDemand {
	return &OnDemand{
		MissPenalty: missPenalty,
		hostCache:   make([]map[netaddr.VIP]netaddr.PIP, len(topo.Hosts)),
	}
}

// Name implements simnet.Scheme.
func (*OnDemand) Name() string { return "OnDemand" }

// SenderResolve implements simnet.Scheme. On a miss the packet is held
// at the host for the rule-installation penalty while the mapping is
// fetched from the control plane, then sent directly: the data packet
// never detours through a gateway (matching Table 4's 0% gateway share
// for OnDemand).
func (o *OnDemand) SenderResolve(e *simnet.Engine, host int32, p *packet.Packet) bool {
	if p.Resolved {
		return true
	}
	if pip, ok := o.hostCache[host][p.DstVIP]; ok {
		p.DstPIP = pip
		p.Resolved = true
		o.HostHits++
		return true
	}
	o.HostMisses++
	e.Hold(e.Now().Add(o.MissPenalty), host, p, 0)
	return false
}

// HoldDone implements simnet.Holder: the miss penalty of p, held at
// host, has elapsed. The mapping as known now goes into the host cache
// and p goes out resolved.
func (o *OnDemand) HoldDone(e *simnet.Engine, host int32, p *packet.Packet, _ uint32) {
	pip, ok := e.Net.Lookup(p.DstVIP)
	if !ok {
		// Unknown VIP (the VM departed meanwhile): the packet is
		// dropped at the host.
		e.Drop(p)
		return
	}
	if o.hostCache[host] == nil {
		o.hostCache[host] = make(map[netaddr.VIP]netaddr.PIP)
	}
	o.hostCache[host][p.DstVIP] = pip
	p.DstPIP = pip
	p.Resolved = true
	e.Resend(host, p)
}

// SwitchArrive implements simnet.Scheme: switches are passive.
func (*OnDemand) SwitchArrive(e *simnet.Engine, sw int32, from topology.NodeRef, p *packet.Packet) bool {
	return true
}

// HostMisdeliver implements simnet.Scheme.
func (*OnDemand) HostMisdeliver(e *simnet.Engine, host int32, p *packet.Packet) {
	followMe(e, host, p)
}

// FlushCache implements simnet.Scheme. OnDemand's caches live in
// the hosts, keyed per host — a switch failure destroys no OnDemand
// state, so there is nothing to flush.
func (*OnDemand) FlushCache(int32) {}

// Direct is the pure host-driven baseline: hosts are preprogrammed with
// every mapping (§5's "preprogrammed model"), estimating the best
// possible network performance while ignoring update overheads.
type Direct struct{}

// NewDirect returns the Direct baseline.
func NewDirect() *Direct { return &Direct{} }

// Name implements simnet.Scheme.
func (*Direct) Name() string { return "Direct" }

// SenderResolve implements simnet.Scheme: resolve from the authoritative
// database — the preprogrammed host state, assumed always current.
func (*Direct) SenderResolve(e *simnet.Engine, host int32, p *packet.Packet) bool {
	if p.Resolved {
		return true
	}
	if pip, ok := e.Net.Lookup(p.DstVIP); ok {
		p.DstPIP = pip
		p.Resolved = true
		return true
	}
	// Unknown VIP: fall back to a gateway, which will count and drop it.
	p.DstPIP = e.GatewayFor(p.SrcPIP, p.FlowID)
	return true
}

// SwitchArrive implements simnet.Scheme.
func (*Direct) SwitchArrive(e *simnet.Engine, sw int32, from topology.NodeRef, p *packet.Packet) bool {
	return true
}

// HostMisdeliver implements simnet.Scheme.
func (*Direct) HostMisdeliver(e *simnet.Engine, host int32, p *packet.Packet) {
	followMe(e, host, p)
}

// FlushCache implements simnet.Scheme. Direct holds no
// switch-resident translation state (hosts are preprogrammed), so a
// switch failure flushes nothing.
func (*Direct) FlushCache(int32) {}
