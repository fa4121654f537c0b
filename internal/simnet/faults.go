package simnet

// Fault-state plumbing: the primitive up/down and loss-window switches
// that internal/faults drives from its event schedule. The engine only
// holds state and applies it on the forwarding paths; all scheduling,
// randomized fault models and timeline recording live in internal/faults.
//
// Semantics (documented in DESIGN.md §"Fault model"):
//
//   - A downed link accepts no new packets (enqueue drops, FaultDrops).
//     Packets already accepted — queued, serializing or in propagation —
//     drain normally, like light already in the fiber.
//   - A failed switch processes nothing: packets in flight toward it die
//     on arrival, packets it would emit are never enqueued (every
//     incident link direction is blocked while the switch is down), and
//     its V2P cache state is destroyed (internal/faults calls the
//     scheme's FlushCache hook).
//   - An outaged gateway instance is dark: senders skip it (GatewayFor
//     re-balances across the surviving instances) and packets already
//     heading there are dropped on arrival.
//   - A loss window drops each packet entering the link with probability
//     rate, using the engine's seeded per-instance PRNG — never the
//     global math/rand state — so same-seed runs stay byte-identical.

import (
	"fmt"
	"math/rand"

	"switchv2p/internal/topology"
)

// linkBetween resolves the directed link from -> to, or nil when the
// two nodes are not physically adjacent (or either is not a node).
func (e *Engine) linkBetween(from, to topology.NodeRef) *link {
	switch {
	case from.Kind == topology.KindHost && to.Kind == topology.KindSwitch:
		if e.hostAtToR(from.Idx, to.Idx) {
			return e.hostUp[from.Idx]
		}
	case from.Kind == topology.KindSwitch && to.Kind == topology.KindHost:
		if e.hostAtToR(to.Idx, from.Idx) {
			return e.hostDown[to.Idx]
		}
	case from.Kind == topology.KindSwitch && to.Kind == topology.KindSwitch:
		return e.fabricLink(from.Idx, to.Idx)
	}
	return nil
}

// hostAtToR reports whether host exists and is attached to switch tor.
func (e *Engine) hostAtToR(host, tor int32) bool {
	return host >= 0 && int(host) < len(e.Topo.Hosts) && e.Topo.Hosts[host].ToR == tor
}

// SetLinkFault fails (down=true) or restores (down=false) the physical
// link between a and b, in both directions. It returns an error when a
// and b are not adjacent, and is idempotent: re-failing a downed link or
// restoring a healthy one is a no-op.
func (e *Engine) SetLinkFault(a, b topology.NodeRef, down bool) error {
	ab, ba := e.linkBetween(a, b), e.linkBetween(b, a)
	if ab == nil || ba == nil {
		return fmt.Errorf("simnet: no link between %v and %v", a, b)
	}
	if ab.faultDown == down {
		return nil
	}
	ab.faultDown, ba.faultDown = down, down
	return nil
}

// SetSwitchFault fails (down=true) or recovers (down=false) switch sw:
// every link direction incident to the switch — fabric neighbors in both
// directions and, for ToRs, the attached hosts' access links — is
// blocked while it is down. Cache state is NOT touched here; the fault
// injector owns the flush-on-failure policy (Scheme.FlushCache). Idempotent.
func (e *Engine) SetSwitchFault(sw int32, down bool) error {
	if sw < 0 || int(sw) >= len(e.swDown) {
		return fmt.Errorf("simnet: switch %d out of range [0,%d)", sw, len(e.swDown))
	}
	if e.swDown[sw] == down {
		return nil
	}
	e.swDown[sw] = down
	var d int8 = 1
	if !down {
		d = -1
	}
	mark := func(l *link) { l.swFaults = uint8(int8(l.swFaults) + d) }
	for _, l := range e.swNbr[sw] {
		mark(l)                         // egress to a fabric neighbor
		mark(e.fabricLink(l.dstSw, sw)) // ingress from it
	}
	for _, h := range e.Topo.HostsAtToR(sw) { // attached hosts, both directions
		mark(e.hostUp[h])
		mark(e.hostDown[h])
	}
	return nil
}

// SwitchFaulted reports whether switch sw is currently failed.
func (e *Engine) SwitchFaulted(sw int32) bool { return e.swDown[sw] }

// SetGatewayFault outages (down=true) or recovers (down=false) the
// translation gateway instance running on the given host. Idempotent.
func (e *Engine) SetGatewayFault(host int32, down bool) error {
	if host < 0 || int(host) >= len(e.gwDown) {
		return fmt.Errorf("simnet: host %d out of range [0,%d)", host, len(e.gwDown))
	}
	if !e.Topo.Hosts[host].Gateway {
		return fmt.Errorf("simnet: host %d is not a translation gateway", host)
	}
	if e.gwDown[host] == down {
		return nil
	}
	e.gwDown[host] = down
	return nil
}

// GatewayFaulted reports whether the gateway on host is outaged.
func (e *Engine) GatewayFaulted(host int32) bool { return e.gwDown[host] }

// SetLinkLoss opens (rate > 0) or closes (rate == 0) a probabilistic
// loss window on the link between a and b, both directions: each packet
// entering the link is dropped with probability rate. Call SetLossSeed
// first to pin the coin-flip stream; otherwise a default seed of 1 is
// installed on first use.
func (e *Engine) SetLinkLoss(a, b topology.NodeRef, rate float64) error {
	if !(rate >= 0 && rate <= 1) { // NaN fails both
		return fmt.Errorf("simnet: loss rate %v outside [0,1]", rate)
	}
	ab, ba := e.linkBetween(a, b), e.linkBetween(b, a)
	if ab == nil || ba == nil {
		return fmt.Errorf("simnet: no link between %v and %v", a, b)
	}
	if rate > 0 && e.lossRand == nil {
		e.SetLossSeed(1)
	}
	ab.loss, ba.loss = rate, rate
	return nil
}

// SetLossSeed (re)seeds the engine-local PRNG behind the per-link loss
// windows. The stream is consumed in event-dispatch order, which is
// itself deterministic, so two runs with the same seed and the same
// fault schedule drop exactly the same packets.
// On a sharded engine each domain draws from its own PRNG, seeded by a
// pure function of (seed, domain) — see shardLossSeed — so the streams
// are deterministic at any worker count (though not identical to the
// serial engine's single stream). Reseed at setup or at a fault barrier,
// never inside a window.
func (e *Engine) SetLossSeed(seed int64) {
	e.lossSeed = seed
	e.lossRand = rand.New(rand.NewSource(seed))
	if sh := e.shard; sh != nil && sh.views != nil {
		for d, v := range sh.views {
			v.lossRand = rand.New(rand.NewSource(shardLossSeed(seed, d)))
		}
	}
}
