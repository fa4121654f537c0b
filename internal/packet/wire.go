package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"switchv2p/internal/netaddr"
)

// Wire format. The simulator exchanges packets as structs for speed, but
// the header stack is fully serializable so that byte accounting is honest
// and the format is testable. Layout (big-endian, mirroring IP-in-IP with
// Geneve-style options):
//
//	outer (20B):  srcPIP(4) dstPIP(4) kind(1) flags(1) payloadLen(2) hops(4) pad(4)
//	tunnel (8B):  optCount(1) vni(3) hitSwitch(4)
//	option (12B): type(1) pad(3) wordA(4) wordB(4)    — one per present option
//	inner (20B):  srcVIP(4) dstVIP(4) flowID(8) seq(4)    — tenant traffic only
//	tcp (20B):    ackNo(4) pad(16)                        — tenant traffic only

// Option type codes.
const (
	optSpill       = 1
	optPromote     = 2
	optMisdelivery = 3
	optCarried     = 4
)

// Flag bits in the outer header.
const (
	flagResolved  = 1 << 0
	flagFin       = 1 << 1
	flagFirstSent = 1 << 2
	flagRetx      = 1 << 3
	// flagWasMisdelivered is the hypervisor's re-forward mark, the fact
	// the ToR tags on (§3.3 step 1 in PROTOCOL.md).
	flagWasMisdelivered = 1 << 4
)

var errShort = errors.New("packet: truncated wire data")

type wireOption struct {
	typ  byte
	a, b uint32
}

func (p *Packet) presentOptions() []wireOption {
	var opts []wireOption
	if p.Spill.IsValid() {
		opts = append(opts, wireOption{optSpill, uint32(p.Spill.VIP), uint32(p.Spill.PIP)})
	}
	if p.Promote.IsValid() {
		opts = append(opts, wireOption{optPromote, uint32(p.Promote.VIP), uint32(p.Promote.PIP)})
	}
	if p.Misdelivered {
		opts = append(opts, wireOption{optMisdelivery, uint32(p.StalePIP), 0})
	}
	if p.Kind == Learning || p.Kind == Invalidation {
		opts = append(opts, wireOption{optCarried, uint32(p.Carried.VIP), uint32(p.Carried.PIP)})
	}
	return opts
}

// Marshal serializes the packet's header stack plus a zero-filled payload
// into a fresh buffer of exactly p.Size() bytes.
func (p *Packet) Marshal() []byte {
	be := binary.BigEndian
	buf := make([]byte, p.Size())
	b := buf

	// Outer header.
	be.PutUint32(b[0:], uint32(p.SrcPIP))
	be.PutUint32(b[4:], uint32(p.DstPIP))
	b[8] = byte(p.Kind)
	var flags byte
	if p.Resolved {
		flags |= flagResolved
	}
	if p.Fin {
		flags |= flagFin
	}
	if p.FirstSent {
		flags |= flagFirstSent
	}
	if p.Retx {
		flags |= flagRetx
	}
	if p.WasMisdelivered {
		flags |= flagWasMisdelivered
	}
	b[9] = flags
	be.PutUint16(b[10:], uint16(p.Payload))
	be.PutUint32(b[12:], uint32(p.Hops))
	b = b[OuterIPBytes:]

	// Tunnel base. The VNI occupies 24 bits, as in Geneve.
	opts := p.presentOptions()
	b[0] = byte(len(opts))
	b[1] = byte(p.VNI >> 16)
	b[2] = byte(p.VNI >> 8)
	b[3] = byte(p.VNI)
	be.PutUint32(b[4:], uint32(p.HitSwitch))
	b = b[TunnelBaseBytes:]

	// Options.
	for _, o := range opts {
		b[0] = o.typ
		be.PutUint32(b[4:], o.a)
		be.PutUint32(b[8:], o.b)
		b = b[OptionBytes:]
	}

	// Inner header + transport for tenant traffic. Control packets carry
	// their mapping as an option, so nothing further.
	switch p.Kind {
	case Data, Ack:
		be.PutUint32(b[0:], uint32(p.SrcVIP))
		be.PutUint32(b[4:], uint32(p.DstVIP))
		be.PutUint64(b[8:], p.FlowID)
		be.PutUint32(b[16:], uint32(p.Seq))
		b = b[InnerIPBytes:]
		be.PutUint32(b[0:], uint32(p.AckNo))
	}
	return buf
}

// Unmarshal parses a buffer produced by Marshal back into a packet.
// Bookkeeping fields that are not on the wire (UID, SentAt) are zero.
func Unmarshal(buf []byte) (*Packet, error) {
	be := binary.BigEndian
	if len(buf) < OuterIPBytes+TunnelBaseBytes {
		return nil, errShort
	}
	p := &Packet{HitSwitch: NoSwitch}
	b := buf
	p.SrcPIP = netaddr.PIP(be.Uint32(b[0:]))
	p.DstPIP = netaddr.PIP(be.Uint32(b[4:]))
	p.Kind = Kind(b[8])
	flags := b[9]
	p.Resolved = flags&flagResolved != 0
	p.Fin = flags&flagFin != 0
	p.FirstSent = flags&flagFirstSent != 0
	p.Retx = flags&flagRetx != 0
	p.WasMisdelivered = flags&flagWasMisdelivered != 0
	p.Payload = int(be.Uint16(b[10:]))
	p.Hops = int(be.Uint32(b[12:]))
	b = b[OuterIPBytes:]

	optCount := int(b[0])
	p.VNI = uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	p.HitSwitch = int32(be.Uint32(b[4:]))
	b = b[TunnelBaseBytes:]

	if len(b) < optCount*OptionBytes {
		return nil, errShort
	}
	for i := 0; i < optCount; i++ {
		typ := b[0]
		a := be.Uint32(b[4:])
		v := be.Uint32(b[8:])
		switch typ {
		case optSpill:
			p.Spill = netaddr.Mapping{VIP: netaddr.VIP(a), PIP: netaddr.PIP(v)}
		case optPromote:
			p.Promote = netaddr.Mapping{VIP: netaddr.VIP(a), PIP: netaddr.PIP(v)}
		case optMisdelivery:
			p.Misdelivered = true
			p.StalePIP = netaddr.PIP(a)
		case optCarried:
			p.Carried = netaddr.Mapping{VIP: netaddr.VIP(a), PIP: netaddr.PIP(v)}
		default:
			return nil, fmt.Errorf("packet: unknown option type %d", typ)
		}
		b = b[OptionBytes:]
	}

	switch p.Kind {
	case Data, Ack:
		if len(b) < InnerIPBytes+TCPHeaderBytes {
			return nil, errShort
		}
		p.SrcVIP = netaddr.VIP(be.Uint32(b[0:]))
		p.DstVIP = netaddr.VIP(be.Uint32(b[4:]))
		p.FlowID = be.Uint64(b[8:])
		p.Seq = int(be.Uint32(b[16:]))
		b = b[InnerIPBytes:]
		p.AckNo = int(be.Uint32(b[0:]))
	}
	return p, nil
}
