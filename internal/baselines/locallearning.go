package baselines

import (
	"switchv2p/internal/core"
	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/topology"
)

// LocalLearning is the §3.1 strawman: every switch performs destination
// learning, admits every insertion, and looks up unresolved packets —
// with no topology awareness, learning packets, spillover, promotion or
// invalidation.
type LocalLearning struct {
	topo   *topology.Topology
	caches []*core.Cache

	// Stats: aggregate counters, read only after the run.
	Lookups, Hits int64
}

// NewLocalLearning builds the strawman with the given per-switch cache
// size.
func NewLocalLearning(topo *topology.Topology, linesPerSwitch int) *LocalLearning {
	l := &LocalLearning{topo: topo}
	l.caches = make([]*core.Cache, len(topo.Switches))
	for i := range l.caches {
		l.caches[i] = core.NewCache(linesPerSwitch)
	}
	return l
}

// Name implements simnet.Scheme.
func (*LocalLearning) Name() string { return "LocalLearning" }

// Cache exposes a switch's cache for tests.
func (l *LocalLearning) Cache(sw int32) *core.Cache { return l.caches[sw] }

// FlushCache implements simnet.Scheme.
func (l *LocalLearning) FlushCache(sw int32) { l.caches[sw].Flush() }

// SenderResolve implements simnet.Scheme.
func (*LocalLearning) SenderResolve(e *simnet.Engine, host int32, p *packet.Packet) bool {
	if !p.Resolved {
		p.DstPIP = e.GatewayFor(p.SrcPIP, p.FlowID)
	}
	return true
}

// SwitchArrive implements simnet.Scheme: greedy local lookup + learn.
func (l *LocalLearning) SwitchArrive(e *simnet.Engine, sw int32, from topology.NodeRef, p *packet.Packet) bool {
	switch p.Kind {
	case packet.Data, packet.Ack:
	default:
		return true
	}
	cache := l.caches[sw]
	if !p.Resolved && cache.Len() > 0 {
		l.Lookups++
		// Never resolve back to the address the packet was just
		// misdelivered to; without this guard a follow-me re-forward
		// could ping-pong.
		if pip, hit, _ := cache.Lookup(p.DstVIP); hit && pip != p.StalePIP {
			p.DstPIP = pip
			p.Resolved = true
			p.HitSwitch = int32(sw)
			l.Hits++
		}
	}
	if p.Resolved {
		cache.Insert(netaddr.Mapping{VIP: p.DstVIP, PIP: p.DstPIP})
	}
	return true
}

// HostMisdeliver implements simnet.Scheme. The old host tags the packet
// with its own address before follow-me so that stale cached entries for
// it are not reused en route (LocalLearning has no invalidation protocol,
// so without the tag packets could loop back here forever).
func (l *LocalLearning) HostMisdeliver(e *simnet.Engine, host int32, p *packet.Packet) {
	p.StalePIP = e.Topo.Hosts[host].PIP
	followMe(e, host, p)
}
