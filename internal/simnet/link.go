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
	// whose egress and ingress ends live in different shards hands each
	// packet to a deterministic mailbox at its serialization end instead
	// of delivering it one propagation delay later on its own queue.
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
	//	[head, settled)   shared-buffer bytes already returned
	//	[settled, tail)   bytes still counted in the switch's bufUsed
	//
	// Each slot records its serialization end, computed at admission, so
	// whether a packet is queued, on the serializer or in propagation
	// flight is a comparison with the clock, not a stage of its own. The
	// link holds tail-head packets (inFlight). settled only matters on a
	// switch-egress link (see Engine.settle). The ring is nil until the
	// link's first packet, then ringMin slots, doubling whenever all of
	// them are occupied.
	ring                []linkSlot
	head, settled, tail uint32
}

// linkSlot is one ring entry: a packet, and its serialization end and
// the size it was admitted at packed into one word — so the slot stays
// two words, the shared-buffer release equals the claim, and the far end
// reads the size instead of recomputing it.
type linkSlot struct {
	p       *packet.Packet
	endSize uint64 // serialization end << sizeBits | admitted size
}

// sizeBits is the admitted size's share of linkSlot.endSize: a packet's
// payload is at most 65 535 bytes (the wire format's 16-bit length), so
// 17 bits hold it with its headers. The serialization end keeps the other
// 47 bits, about 39 simulated hours.
const sizeBits = 17

func (s *linkSlot) end() simtime.Time { return simtime.Time(s.endSize >> sizeBits) }
func (s *linkSlot) size() int         { return int(s.endSize & (1<<sizeBits - 1)) }

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

// due is the instant slot s leaves the link: one propagation delay after
// its last bit (store-and-forward), or the last bit itself on a shard
// boundary, where the cross-shard mailbox takes over the propagation.
func (l *link) due(s *linkSlot) simtime.Time {
	if l.boundary {
		return s.end()
	}
	return s.end().Add(l.delay)
}

// Fire hands slot head's packet to the far end. A link is FIFO and a
// delivery is a serialization end plus a constant delay, so deliveries
// are monotone in admission order: the link is its own delivery event,
// with at most one pending, for slot head. enqueue arms it when the ring
// was empty; Fire releases the slot and re-arms it for the next one
// before handing the packet on, so a re-entrant enqueue on the same link
// may reuse the slot and sees a consistent ring. The next slot's
// serialization ends at most one serialization time after this delivery,
// so every arming lands within LinkDelay plus the longest serialization
// of the clock: on eventq's wheel.
func (l *link) Fire() {
	s := l.slot(l.head)
	p, size := s.p, s.size()
	s.p = nil
	if l.fromSwitch >= 0 && l.settled == l.head {
		// The packet's last bit has left: its buffer bytes go back now,
		// unless a settle has returned them already.
		l.e.bufUsed[l.fromSwitch] -= size
		l.settled++
	}
	l.head++
	if l.head != l.tail {
		l.e.Q.AtTimed(l.due(l.slot(l.head)), l)
	}
	if l.boundary {
		// The far end lives in another shard: the packet leaves the ring
		// at its serialization end, for the deterministic cross-shard
		// mailbox, instead of waiting out the propagation on this shard's
		// queue.
		l.e.shard.post(l, p)
		return
	}
	l.deliverPkt(p, size)
}

// deliverPkt hands the packet, admitted at size bytes, to the far end of
// the link: a host NIC or a switch ingress, on the engine that owns the
// destination (the root engine in legacy mode, the destination shard's
// view when sharded).
func (l *link) deliverPkt(p *packet.Packet, size int) {
	if l.dstHost >= 0 {
		l.dst.hostArrive(l.dstHost, p, size)
	} else if l.dstSw >= 0 {
		l.dst.switchArrive(l.dstSw, l.fromRef, p, size)
	}
	// Both ends unbound: a sink link (tests exercising the bare
	// serializer); the packet is discarded.
}

// enqueue admits p to the ring, dropping it if the link is down (fault
// injection), lossy (probabilistic loss window), or if the owning
// switch's shared buffer is exhausted, computes when its serialization
// ends and arms the delivery if none is pending. Either way the packet
// is no longer the caller's: a dropped one has gone back to the pool.
func (l *link) enqueue(p *packet.Packet) {
	if l.down() {
		l.e.C.FaultDrops++
		l.e.Drop(p)
		return
	}
	if l.loss != 0 && l.e.lossRand.Float64() < l.loss {
		l.e.C.LossDrops++
		l.e.Drop(p)
		return
	}
	size := p.Size()
	now := l.e.Q.Now()
	if l.fromSwitch >= 0 && !l.e.admit(l.fromSwitch, size, now) {
		l.e.C.SwitchDrops[l.fromSwitch]++
		l.e.Drop(p)
		return
	}
	// The serializer frees up when the newest packet's last bit leaves;
	// with the ring empty, every earlier packet has left already.
	start := now
	if l.tail != l.head {
		start = max(now, l.slot(l.tail-1).end())
	}
	end := start.Add(simtime.TransmitTime(size, l.bps))
	if uint64(end)>>(64-sizeBits)|uint64(size)>>sizeBits != 0 {
		panic("simnet: a packet's size or serialization end does not fit its link slot")
	}
	if l.inFlight() == len(l.ring) {
		l.grow()
	}
	*l.slot(l.tail) = linkSlot{p: p, endSize: uint64(end)<<sizeBits | uint64(size)}
	l.tail++
	if l.tail-l.head == 1 { // no delivery was pending
		l.e.Q.AtTimed(l.due(l.slot(l.head)), l)
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

// admit claims size bytes of switch sw's shared buffer at instant now,
// or reports that they do not fit. Bytes return when a packet's
// serialization ends, settled lazily but exactly: the running sum
// bufUsed[sw] counts some packets whose last bit has already left, so it
// is an upper bound, and only when that bound would decide something —
// pass BufferBytes, or raise the recorded peak — does admit settle the
// switch first. An admission at now thus sees every serialization that
// ended at or before now.
func (e *Engine) admit(sw int32, size int, now simtime.Time) bool {
	used := e.bufUsed[sw] + size
	if used > e.Topo.Cfg.BufferBytes || int64(used) > e.bufPeak {
		used = e.settle(sw, now) + size
		if used > e.Topo.Cfg.BufferBytes {
			return false
		}
		e.bufPeak = max(e.bufPeak, int64(used))
	}
	e.bufUsed[sw] = used
	e.bufLastSw = sw
	return true
}

// settle returns to switch sw's shared buffer the bytes of every packet
// on its egress links — to its neighbours and down to its hosts — whose
// serialization ended at or before now, and returns the exact occupancy
// that leaves.
func (e *Engine) settle(sw int32, now simtime.Time) int {
	used := e.bufUsed[sw]
	for _, l := range e.swNbr[sw] {
		used -= l.settle(now)
	}
	for _, h := range e.Topo.HostsAtToR(sw) {
		used -= e.hostDown[h].settle(now)
	}
	e.bufUsed[sw] = used
	return used
}

// settle advances settled past the slots whose serialization ended at or
// before now and returns their bytes. Slot ends are monotone along the
// ring, so it stops at the first packet still serializing or queued.
func (l *link) settle(now simtime.Time) (freed int) {
	for ; l.settled != l.tail; l.settled++ {
		s := l.slot(l.settled)
		if s.end() > now {
			break
		}
		freed += s.size()
	}
	return freed
}
