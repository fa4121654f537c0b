package packet

import "switchv2p/internal/netaddr"

// Pool is a free list of packets. Get hands out a blank packet and marks
// it as the pool's; Put takes back only a packet that carries the mark and
// clears it, so a packet built by New* or Clone, a packet already put back
// and a nil pool are all no-ops — callers release wherever their books
// close a packet without asking where it came from. A packet that is never
// put back is merely garbage.
//
// A nil *Pool is valid and pools nothing: Get allocates an unmarked packet
// and Put ignores everything. The package-level New* constructors are the
// nil pool's. Not safe for concurrent use.
type Pool struct {
	free       []*Packet
	quarantine bool
}

// Get returns a blank packet: every field zero except HitSwitch, which is
// NoSwitch.
func (pl *Pool) Get() *Packet {
	if pl != nil {
		if n := len(pl.free); n > 0 {
			p := pl.free[n-1]
			pl.free = pl.free[:n-1]
			*p = Packet{HitSwitch: NoSwitch, pooled: true}
			return p
		}
	}
	return &Packet{HitSwitch: NoSwitch, pooled: pl != nil}
}

// Put returns p to the free list if p is a packet Get handed out and
// nobody has put back since. The caller must not touch p afterwards.
func (pl *Pool) Put(p *Packet) {
	if !p.pooled || pl == nil {
		return
	}
	p.pooled = false
	if pl.quarantine {
		*p = poison
		return
	}
	pl.free = append(pl.free, p)
}

// Empty drops the free list, so that a pool that has gone quiet pins no
// dead packets. Packets still out keep their mark and may be put back.
func (pl *Pool) Empty() {
	if pl != nil {
		pl.free = nil
	}
}

// Quarantine is a test aid for finding readers of released packets: from
// now on Put overwrites the packet with values no live packet carries and
// never hands it out again, so whoever still reads it computes garbage
// where it would otherwise have read a plausible later packet.
func (pl *Pool) Quarantine() {
	pl.quarantine = true
	pl.free = nil
}

// poison is what a quarantined packet reads as: an unknown kind, all-ones
// addresses and identifiers, negative counts.
var poison = Packet{
	UID: ^uint64(0), Kind: Kind(0xff),
	SrcPIP: ^netaddr.PIP(0), DstPIP: ^netaddr.PIP(0), SrcVIP: ^netaddr.VIP(0), DstVIP: ^netaddr.VIP(0),
	Resolved: true, VNI: ^uint32(0), FlowID: ^uint64(0), Seq: -1, AckNo: -1, Fin: true, Payload: -1,
	Spill:        netaddr.Mapping{VIP: ^netaddr.VIP(0), PIP: ^netaddr.PIP(0)},
	Promote:      netaddr.Mapping{VIP: ^netaddr.VIP(0), PIP: ^netaddr.PIP(0)},
	Misdelivered: true, StalePIP: ^netaddr.PIP(0), HitSwitch: -2,
	Carried: netaddr.Mapping{VIP: ^netaddr.VIP(0), PIP: ^netaddr.PIP(0)},
	SentAt:  -1, Hops: -1, FirstSent: true, Retx: true, WasMisdelivered: true,
}

// NewData is the package-level NewData on a packet from the pool.
func (pl *Pool) NewData(flowID uint64, seq int, payload int, srcVIP, dstVIP netaddr.VIP, srcPIP netaddr.PIP) *Packet {
	p := pl.Get()
	p.Kind = Data
	p.SrcPIP = srcPIP
	p.SrcVIP = srcVIP
	p.DstVIP = dstVIP
	p.FlowID = flowID
	p.Seq = seq
	p.Payload = payload
	return p
}

// NewAck is the package-level NewAck on a packet from the pool.
func (pl *Pool) NewAck(flowID uint64, ackNo int, srcVIP, dstVIP netaddr.VIP, srcPIP netaddr.PIP) *Packet {
	p := pl.Get()
	p.Kind = Ack
	p.SrcPIP = srcPIP
	p.SrcVIP = srcVIP
	p.DstVIP = dstVIP
	p.FlowID = flowID
	p.AckNo = ackNo
	return p
}

// NewLearning is the package-level NewLearning on a packet from the pool.
func (pl *Pool) NewLearning(m netaddr.Mapping, src, dst netaddr.PIP) *Packet {
	p := pl.Get()
	p.Kind = Learning
	p.SrcPIP = src
	p.DstPIP = dst
	p.Resolved = true
	p.Carried = m
	return p
}

// NewInvalidation is the package-level NewInvalidation on a packet from
// the pool.
func (pl *Pool) NewInvalidation(vip netaddr.VIP, stalePIP netaddr.PIP, src, dst netaddr.PIP) *Packet {
	p := pl.Get()
	p.Kind = Invalidation
	p.SrcPIP = src
	p.DstPIP = dst
	p.Resolved = true
	p.Carried = netaddr.Mapping{VIP: vip, PIP: stalePIP}
	return p
}
