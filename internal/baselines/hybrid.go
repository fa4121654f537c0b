package baselines

import (
	"switchv2p/internal/core"
	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

// Hybrid layers Andromeda's Hoverboard-style dynamic host offload on top
// of SwitchV2P — the paper's "seamless integration with gateway/hybrid
// solutions" objective (§3) and the §4 "Handling dynamic caching in the
// host" discussion: hot destinations get a host flow rule after
// OffloadThreshold packets (installed by the control plane after
// InstallLatency), while everything else resolves through SwitchV2P's
// in-network caches. Host-resolved packets are already resolved when
// they reach the switches, so SwitchV2P performs no lookups for them and
// the corresponding switch entries naturally decay (their access bits
// stay clear), exactly as §4 describes.
type Hybrid struct {
	*core.Scheme

	// OffloadThreshold is the per-(host, destination) packet count after
	// which the controller installs a host rule (Hoverboard's policy;
	// Zeta uses a similar threshold).
	OffloadThreshold int
	// InstallLatency models the control-plane rule installation time
	// (order of milliseconds in Zeta/Achelous).
	InstallLatency simtime.Duration

	// The offload counters share one map across hosts, and controller
	// installs into hostCache fire after InstallLatency, outside the
	// originating event's slot — so Hybrid is not on
	// harness.ShardSupported's whitelist and runs on the serial engine.
	counts    map[hostDstKey]int
	hostCache []map[netaddr.VIP]netaddr.PIP

	// Stats: aggregate counters, read only after the run.
	HostHits     int64
	RulesOffload int64
}

type hostDstKey struct {
	host int32
	dst  netaddr.VIP
}

// NewHybrid builds the hybrid scheme: SwitchV2P options for the switch
// tier, plus the host offload policy.
func NewHybrid(topo *topology.Topology, opts core.Options, threshold int, installLatency simtime.Duration) *Hybrid {
	return &Hybrid{
		Scheme:           core.New(topo, opts),
		OffloadThreshold: threshold,
		InstallLatency:   installLatency,
		counts:           make(map[hostDstKey]int),
		hostCache:        make([]map[netaddr.VIP]netaddr.PIP, len(topo.Hosts)),
	}
}

// Name implements simnet.Scheme.
func (*Hybrid) Name() string { return "Hybrid" }

// SenderResolve implements simnet.Scheme: consult the host flow rules
// first; count packets toward the offload threshold otherwise.
func (h *Hybrid) SenderResolve(e *simnet.Engine, host int32, p *packet.Packet) bool {
	if p.Resolved {
		return true
	}
	if pip, ok := h.hostCache[host][p.DstVIP]; ok {
		p.DstPIP = pip
		p.Resolved = true
		h.HostHits++
		return true
	}
	key := hostDstKey{host, p.DstVIP}
	h.counts[key]++
	if h.counts[key] == h.OffloadThreshold {
		h.RulesOffload++
		vip := p.DstVIP
		e.Q.After(h.InstallLatency, func() {
			if pip, ok := e.Net.Lookup(vip); ok {
				if h.hostCache[host] == nil {
					h.hostCache[host] = make(map[netaddr.VIP]netaddr.PIP)
				}
				h.hostCache[host][vip] = pip
			}
		})
	}
	// Cold path: SwitchV2P's gateway-driven resolution.
	return h.Scheme.SenderResolve(e, host, p)
}

// HostRule exposes a host's installed rule for tests.
func (h *Hybrid) HostRule(host int32, vip netaddr.VIP) (netaddr.PIP, bool) {
	pip, ok := h.hostCache[host][vip]
	return pip, ok
}

var _ simnet.Scheme = (*Hybrid)(nil)
