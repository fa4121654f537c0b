package simnet

import (
	"switchv2p/internal/packet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

// link is one direction of a physical link: a FIFO egress queue, a
// serializer running at the link rate, and a propagation delay to the far
// end. Links egressing a switch draw from that switch's shared buffer;
// links egressing a host are paced by the transport layer and therefore
// unbounded.
type link struct {
	e     *Engine
	bps   int64
	delay simtime.Duration

	// Delivery target, bound once at topology wiring: either a switch
	// (dstSw >= 0, with fromRef the arriving direction) or a host
	// (dstHost >= 0). dst is the engine the arrival runs on — the root
	// engine in legacy mode; the sharded engine rebinds it to the
	// destination shard's view so the arrival mutates that shard's state.
	dst     *Engine
	dstSw   int32
	dstHost int32
	fromRef topology.NodeRef

	fromSwitch int32 // owning switch for shared-buffer accounting, -1 for host egress

	// Shard-boundary marking (set when the engine is sharded): a link
	// whose egress and ingress ends live in different shards hands
	// packets off through a deterministic mailbox at the propagation
	// stage instead of scheduling the deliver stage on its own queue.
	boundary bool
	dstDom   int32

	// Fault state (see Engine.SetLinkFault / SetSwitchFault /
	// SetLinkLoss). faultDown marks an explicit link failure; swFaults
	// counts failed endpoint switches (a fabric link has up to two, so a
	// recovery of one endpoint must not revive a link whose other
	// endpoint is still dark); loss is the probabilistic drop rate of the
	// current loss window (0 = lossless). A link accepts no packets while
	// it is down().
	faultDown bool
	swFaults  uint8
	loss      float64

	// The ring: every packet this link has accepted and not yet handed to
	// the far end, oldest first, addressed by three free-running indices
	// (masked by len(ring)-1 on use, so they may wrap):
	//
	//	[head, tx)   serialized, in propagation flight
	//	tx           on the serializer (when tx != tail)
	//	(tx, tail)   waiting behind it
	//
	// The link is idle when tx == tail and holds tail-head packets
	// (inFlight). The ring is nil until the link's first packet, then
	// ringMin slots, doubling whenever all of them are occupied.
	ring           []linkSlot
	head, tx, tail uint32
}

// linkSlot is one ring entry: a packet and the size it was admitted at,
// so the shared-buffer release equals the claim and neither scheduled
// stage has to touch the packet.
type linkSlot struct {
	p    *packet.Packet
	size int
}

// ringMin is the length of a link's first ring; a power of two.
const ringMin = 4

// slot returns the ring entry index i addresses.
func (l *link) slot(i uint32) *linkSlot { return &l.ring[i&uint32(len(l.ring)-1)] }

// inFlight counts the packets the link holds: accepted and not yet handed
// to the far end.
func (l *link) inFlight() int { return int(l.tail - l.head) }

// down reports whether the link accepts nothing: it was failed explicitly,
// or one of its endpoint switches is.
func (l *link) down() bool { return l.faultDown || l.swFaults != 0 }

// A link is FIFO and both of its scheduled instants are monotone in
// arrival order — serialization ends are serialized, and a delivery is a
// serialization end plus the constant delay — so the link needs no
// per-packet event record: it is its own event, under two method sets.
// As *link it is the end of serialization of slot tx; as *linkEvent it is
// the end of propagation of slot head. The queue dispatches in (time,
// insertion) order, so the k-th delivery to fire is the k-th scheduled,
// which is slot head.
type linkEvent link

// Fire ends the serialization of slot tx: the packet's last bit has left,
// so its shared-buffer claim is released, it starts its propagation
// flight, and the serializer moves on to the next waiting packet.
func (l *link) Fire() {
	s := l.slot(l.tx)
	if l.fromSwitch >= 0 {
		l.e.bufUsed[l.fromSwitch] -= s.size
		l.e.bufLast = int64(l.e.bufUsed[l.fromSwitch])
	}
	if l.boundary {
		// The far end lives in another shard: the packet leaves the ring
		// here, for the deterministic cross-shard mailbox, instead of
		// waiting out the propagation stage on this shard's queue. Nothing
		// is ever in flight on a boundary link, so head == tx.
		p := s.p
		s.p = nil
		l.head++
		l.e.shard.post(l, p)
	} else {
		// Store-and-forward: the far end receives the packet one
		// propagation delay after the last bit leaves.
		l.e.Q.AfterTimed(l.delay, (*linkEvent)(l))
	}
	l.tx++
	if l.tx != l.tail {
		l.startNext()
	}
}

// Fire ends the propagation of slot head and hands its packet to the far
// end. The slot is released first, so a re-entrant enqueue on the same
// link may reuse it immediately.
func (ev *linkEvent) Fire() {
	l := (*link)(ev)
	s := l.slot(l.head)
	p := s.p
	s.p = nil
	l.head++
	l.deliverPkt(p)
}

// deliverPkt hands the packet to the far end of the link: a host NIC or
// a switch ingress, on the engine that owns the destination (the root
// engine in legacy mode, the destination shard's view when sharded).
func (l *link) deliverPkt(p *packet.Packet) {
	if l.dstHost >= 0 {
		l.dst.hostArrive(l.dstHost, p)
	} else if l.dstSw >= 0 {
		l.dst.switchArrive(l.dstSw, l.fromRef, p)
	}
	// Both ends unbound: a sink link (tests exercising the bare
	// serializer); the packet is discarded.
}

// enqueue admits p to the ring, dropping it if the link is down (fault
// injection), lossy (probabilistic loss window), or if the owning
// switch's shared buffer is exhausted, and starts the serializer if idle.
// Either way the packet is no longer the caller's: a dropped one has gone
// back to the pool.
func (l *link) enqueue(p *packet.Packet) {
	if l.down() {
		l.e.C.Drops++
		l.e.C.FaultDrops++
		l.e.pool.Put(p)
		return
	}
	if l.loss != 0 && l.e.lossRand.Float64() < l.loss {
		l.e.C.Drops++
		l.e.C.LossDrops++
		l.e.pool.Put(p)
		return
	}
	size := p.Size()
	if l.fromSwitch >= 0 {
		used := l.e.bufUsed[l.fromSwitch] + size
		if used > l.e.Topo.Cfg.BufferBytes {
			l.e.C.Drops++
			l.e.C.SwitchDrops[l.fromSwitch]++
			l.e.pool.Put(p)
			return
		}
		l.e.bufUsed[l.fromSwitch] = used
		l.e.bufLast, l.e.bufPeak = int64(used), max(l.e.bufPeak, int64(used))
	}
	if l.inFlight() == len(l.ring) {
		l.grow()
	}
	*l.slot(l.tail) = linkSlot{p: p, size: size}
	l.tail++
	if l.tail-l.tx == 1 { // the serializer was idle
		l.startNext()
	}
}

// grow doubles a full ring (or makes the first one). Every occupied slot
// keeps its index: the longer mask only places it differently.
func (l *link) grow() {
	old := l.ring
	l.ring = make([]linkSlot, max(ringMin, 2*len(old)))
	for i := l.head; i != l.tail; i++ {
		*l.slot(i) = old[i&uint32(len(old)-1)]
	}
}

// startNext puts slot tx on the serializer: the link itself is the event
// that ends its serialization.
func (l *link) startNext() {
	l.e.Q.AfterTimed(simtime.TransmitTime(l.slot(l.tx).size, l.bps), l)
}
