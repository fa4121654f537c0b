// Package baselines implements the V2P translation mechanisms the paper
// compares SwitchV2P against (§5 "Evaluation"):
//
//   - NoCache: a pure gateway design (Andromeda's Hoverboard model
//     without host offloading).
//   - LocalLearning: the §3.1 strawman — every switch destination-learns
//     and admits everything.
//   - GwCache: Sailfish-style caching at the gateway ToRs only.
//   - Bluebird: ToR route caches with a bandwidth-limited control-plane
//     slow path.
//   - OnDemand: host-driven with a first lookup at the gateway (VL2 /
//     Hoverboard with immediate offload / Achelous ALM).
//   - Direct: pure host-driven, hosts preprogrammed with all mappings.
//   - Controller: centralized placement from the exact traffic matrix
//     (Appendix A): exact at the ToRs for small rounds, lazy greedy over
//     every uplink for large ones.
package baselines

import (
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
)

// followMe re-forwards a misdelivered packet using the old host's
// follow-me rule (Andromeda §3.3); if no rule exists the packet falls
// back to a gateway.
func followMe(e *simnet.Engine, host int32, p *packet.Packet) {
	if pip, ok := e.Net.FollowMe(host, p.DstVIP); ok {
		p.DstPIP = pip
		p.Resolved = true
		e.Resend(host, p)
		return
	}
	p.Resolved = false
	p.DstPIP = e.GatewayFor(p.SrcPIP, p.FlowID)
	e.Resend(host, p)
}
