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
	// faultDown || swFaults != 0.
	faultDown bool
	swFaults  uint8
	loss      float64

	// inFlight counts packets accepted by this link and not yet handed to
	// the far end: queued, serializing, or in propagation flight.
	inFlight int

	queue []*packet.Packet
	head  int
	busy  bool

	// free is the freelist of pooled event records. A record leaves the
	// freelist when a packet starts serializing and returns in its deliver
	// stage, so the pool grows to this link's in-flight high-water mark
	// and is then reused forever: the steady-state serializer path
	// allocates nothing.
	free []*linkEvent
}

// linkEvent is a pooled, pre-bound event record (eventq.Timed) that
// carries one packet through the link's two scheduled instants: the end
// of serialization (stageTxDone) and the end of propagation
// (stageDeliver). The queue owns the record between AfterTimed and Fire;
// the link owns it otherwise. A record is recycled onto l.free before
// deliver runs, so re-entrant enqueues on the same link may reuse it
// immediately.
type linkEvent struct {
	l     *link
	p     *packet.Packet
	size  int
	stage uint8
}

const (
	stageTxDone uint8 = iota
	stageDeliver
)

// Fire dispatches the record's current stage.
//
//v2plint:hotpath
func (ev *linkEvent) Fire() {
	switch ev.stage {
	case stageTxDone:
		ev.l.txDone(ev.size)
		if ev.l.boundary {
			// The far end lives in another shard: hand the packet to the
			// deterministic cross-shard mailbox instead of scheduling the
			// propagation stage on this shard's queue. The record is
			// recycled here, so the pool behaves exactly as in the local
			// case.
			l, p := ev.l, ev.p
			ev.p = nil
			l.free = append(l.free, ev)
			l.inFlight--
			l.e.shard.post(l, p)
		} else {
			// Store-and-forward: the far end receives the packet one
			// propagation delay after the last bit leaves.
			ev.stage = stageDeliver
			ev.l.e.Q.AfterTimed(ev.l.delay, ev)
		}
		ev.l.serializeNext()
	default: // stageDeliver
		l, p := ev.l, ev.p
		ev.p = nil
		l.free = append(l.free, ev)
		l.inFlight--
		l.deliverPkt(p)
	}
}

// deliverPkt hands the packet to the far end of the link: a host NIC or
// a switch ingress, on the engine that owns the destination (the root
// engine in legacy mode, the destination shard's view when sharded).
//
//v2plint:hotpath
func (l *link) deliverPkt(p *packet.Packet) {
	if l.dstHost >= 0 {
		//v2plint:allow hotpath host arrival runs the Handler/Tap hooks, whose dynamic dispatch is inherent to delivery; the binding is fixed at wiring
		l.dst.hostArrive(l.dstHost, p)
	} else if l.dstSw >= 0 {
		l.dst.switchArrive(l.dstSw, l.fromRef, p)
	}
	// Both ends unbound: a sink link (tests exercising the bare
	// serializer); the packet is discarded.
}

// getEvent pops a pooled record, allocating only to grow the pool.
//
//v2plint:hotpath
func (l *link) getEvent() *linkEvent {
	if n := len(l.free); n > 0 {
		ev := l.free[n-1]
		l.free = l.free[:n-1]
		return ev
	}
	//v2plint:allow hotpath pool growth: one record per in-flight high-water mark, then reused forever
	return &linkEvent{l: l}
}

// enqueue appends p to the egress queue, dropping it if the link is
// down (fault injection), lossy (probabilistic loss window), or if the
// owning switch's shared buffer is exhausted, and kicks the serializer
// if idle. The fault-flag read is gated: activeFaults counts every
// downed link and failed switch, so the gate never changes which
// packets drop, only spares healthy runs the flag reads.
//
//v2plint:hotpath
func (l *link) enqueue(p *packet.Packet) {
	if l.e.activeFaults > 0 && (l.faultDown || l.swFaults != 0) {
		l.e.C.Drops++
		l.e.C.FaultDrops++
		return
	}
	if l.loss != 0 && l.e.lossRand.Float64() < l.loss {
		l.e.C.Drops++
		l.e.C.LossDrops++
		return
	}
	size := p.Size()
	if l.fromSwitch >= 0 {
		if l.e.bufUsed[l.fromSwitch]+size > l.e.Topo.Cfg.BufferBytes {
			l.e.C.Drops++
			l.e.C.SwitchDrops[l.fromSwitch]++
			return
		}
		l.e.bufUsed[l.fromSwitch] += size
		l.e.BufGauge.Set(int64(l.e.bufUsed[l.fromSwitch]))
	}
	l.inFlight++
	l.queue = append(l.queue, p)
	if !l.busy {
		l.busy = true
		l.startNext()
	}
}

// txDone releases the packet's shared-buffer claim when its last bit
// leaves the serializer.
//
//v2plint:hotpath
func (l *link) txDone(size int) {
	if l.fromSwitch >= 0 {
		l.e.bufUsed[l.fromSwitch] -= size
		l.e.BufGauge.Set(int64(l.e.bufUsed[l.fromSwitch]))
	}
}

// serializeNext continues with the next queued packet, or idles the
// serializer.
//
//v2plint:hotpath
func (l *link) serializeNext() {
	if l.head < len(l.queue) {
		l.startNext()
	} else {
		l.busy = false
	}
}

// startNext begins serializing the packet at the head of the queue,
// carried by a pooled linkEvent record.
//
//v2plint:hotpath
func (l *link) startNext() {
	p := l.queue[l.head]
	l.queue[l.head] = nil
	l.head++
	if l.head == len(l.queue) {
		l.queue = l.queue[:0]
		l.head = 0
	} else if l.head*2 >= len(l.queue) {
		// Under sustained backlog the queue never fully drains, so waiting
		// for that moment would let the backing array grow without bound
		// while head advances. Copy the live tail down once head crosses
		// the midpoint: each element moves at most once per half-drain
		// (amortized O(1) per packet) and capacity stays bounded by about
		// twice the backlog high-water mark.
		n := copy(l.queue, l.queue[l.head:])
		tail := l.queue[n:]
		for i := range tail {
			tail[i] = nil
		}
		l.queue = l.queue[:n]
		l.head = 0
	}
	size := p.Size()
	tx := simtime.TransmitTime(size, l.bps)
	ev := l.getEvent()
	ev.p = p
	ev.size = size
	ev.stage = stageTxDone
	l.e.Q.AfterTimed(tx, ev)
}
