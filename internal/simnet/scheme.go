package simnet

import (
	"switchv2p/internal/packet"
	"switchv2p/internal/topology"
)

// Scheme is the pluggable V2P translation mechanism under evaluation.
// The engine owns packet movement (links, queues, ECMP routing, gateway
// processing, local delivery); the scheme owns every translation-related
// decision: what the sender writes into the outer header, what each
// switch does with a passing packet, and how a host reacts to a
// misdelivered packet.
//
// A packet has one owner. Whoever is handed a packet may read and rewrite
// it during the call and must not keep the pointer past handing it on (a
// true return, HostSend, Resend, InjectFromSwitch, Hold, Drop): the engine
// returns the packet to its pool once it is delivered, dropped or
// consumed, and the same memory is then the next packet. A scheme that
// makes a packet wait hands it to e.Hold, which gives it back through
// Holder.HoldDone; a scheme that loses one hands it to e.Drop. Deferred
// work that is not the packet's own forwarding (a cache install after a
// delay) captures the values it needs, not p. New packets a scheme emits
// come from e.Packets().
//
// SwitchV2P (internal/core) and all the paper's baselines
// (internal/baselines) implement this interface.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string

	// SenderResolve runs on the sending host just before a packet enters
	// the network. It must set p.DstPIP — either the destination's true
	// physical address (p.Resolved = true, host-driven designs) or a
	// translation gateway (p.Resolved = false, gateway-driven designs).
	// Leaving p.DstPIP unset routes the packet to the sender's ToR, which
	// must then consume or resolve it (Bluebird-style designs).
	// Returning false means the scheme has handed p on itself, to e.Hold
	// or e.Drop (OnDemand holds it for the miss penalty while the mapping
	// is fetched, then Resends it).
	SenderResolve(e *Engine, host int32, p *packet.Packet) bool

	// SwitchArrive runs when switch sw receives p from neighbor `from`
	// (a host or switch NodeRef). The scheme may look up and rewrite the
	// outer destination, learn mappings, attach or strip option TLVs, and
	// inject new packets via e.InjectFromSwitch. Returning false consumes
	// the packet (it is not forwarded further): a control packet ends
	// there and the engine releases it; a tenant packet the scheme has
	// handed on itself, to e.Hold or e.Drop (Bluebird's slow path).
	SwitchArrive(e *Engine, sw int32, from topology.NodeRef, p *packet.Packet) bool

	// HostMisdeliver runs on a host that received a packet whose
	// destination VM is not local (after the hypervisor's processing
	// penalty). The scheme must re-forward the packet — typically to a
	// gateway (gateway-driven) or straight to the VM's new host via a
	// follow-me rule (host-driven).
	HostMisdeliver(e *Engine, host int32, p *packet.Packet)

	// FlushCache discards every mapping (and any per-switch protocol
	// state) held by switch sw. The fault injector (internal/faults)
	// models the state loss of a switch failure through it: a recovered
	// switch restarts with a cold cache and must re-learn from passing
	// traffic. Schemes without per-switch translation state (NoCache,
	// OnDemand, Direct) implement an explicit no-op, so "nothing to
	// flush" is a reviewed statement rather than an accident of a
	// missing method.
	FlushCache(sw int32)
}

// Holder is a Scheme that makes packets wait with Engine.Hold.
type Holder interface {
	// HoldDone runs when a packet held by e.Hold(at, node, p, word)
	// comes due, with the same node, p and word. p is the scheme's
	// again, to hand on: Resend, InjectFromSwitch or Drop.
	HoldDone(e *Engine, node int32, p *packet.Packet, word uint32)
}
