package baselines

import (
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/topology"
)

// NoCache is the pure gateway baseline: every packet detours through a
// translation gateway; switches are passive. Misdelivered packets are
// re-forwarded by the old host's follow-me rule.
type NoCache struct{}

// NewNoCache returns the NoCache baseline.
func NewNoCache() *NoCache { return &NoCache{} }

// Name implements simnet.Scheme.
func (*NoCache) Name() string { return "NoCache" }

// SenderResolve implements simnet.Scheme.
func (*NoCache) SenderResolve(e *simnet.Engine, host int32, p *packet.Packet) bool {
	if !p.Resolved {
		p.DstPIP = e.GatewayFor(p.SrcPIP, p.FlowID)
	}
	return true
}

// SwitchArrive implements simnet.Scheme: switches only forward.
func (*NoCache) SwitchArrive(e *simnet.Engine, sw int32, from topology.NodeRef, p *packet.Packet) bool {
	return true
}

// HostMisdeliver implements simnet.Scheme.
func (*NoCache) HostMisdeliver(e *simnet.Engine, host int32, p *packet.Packet) {
	followMe(e, host, p)
}

// FlushCache implements simnet.Scheme. NoCache keeps no
// switch-resident translation state, so a switch failure flushes
// nothing.
func (*NoCache) FlushCache(int32) {}
