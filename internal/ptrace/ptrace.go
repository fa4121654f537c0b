// Package ptrace captures simulated packets at switch and host arrival
// points into a compact binary trace — the simulator's equivalent of a
// pcap capture. Records carry the simulated timestamp, the observation
// point, and the packet's full wire encoding (internal/packet's
// Marshal format), so traces are self-contained and replayable.
//
// Typical use:
//
//	tr := ptrace.New(engine, ptrace.Options{FlowID: 1})
//	engine.Run(simtime.Never)
//	tr.WriteTo(file)
//
// There is one file format, SV2PTRC1 (see WriteTo). Capture is buffered:
// bound a long run's trace with Options.FlowID.
package ptrace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

// magic identifies trace files ("SV2PTRC1"): record count up front, then
// that many records. The count is kept, rather than letting records run
// to EOF, because it makes truncation detectable even when the file is
// cut exactly at a record boundary.
var magic = [8]byte{'S', 'V', '2', 'P', 'T', 'R', 'C', '1'}

// Record is one captured packet observation.
type Record struct {
	At     simtime.Time
	Point  topology.NodeRef
	Packet *packet.Packet
}

// Options filters what gets captured.
type Options struct {
	// FlowID restricts capture to one flow (0 = all flows).
	FlowID uint64
}

// Tracer collects records from an engine's Tap.
type Tracer struct {
	opts    Options
	e       *simnet.Engine
	Records []Record

	closed bool
}

// New installs a tracer as the engine's Tap and returns it. Installing a
// second tracer replaces the first (the replaced tracer stops observing
// and its Close leaves the engine alone).
func New(e *simnet.Engine, opts Options) *Tracer {
	t := &Tracer{opts: opts, e: e}
	e.Tap = t.observe
	e.TapOwner = t
	return t
}

func (t *Tracer) observe(at topology.NodeRef, p *packet.Packet) {
	if t.closed || (t.opts.FlowID != 0 && p.FlowID != t.opts.FlowID) {
		return
	}
	// Snapshot the packet: it mutates as it continues through the
	// network.
	t.Records = append(t.Records, Record{At: t.e.Now(), Point: at, Packet: p.Clone()})
}

// Close stops the tracer. The engine's tap is detached only if this
// tracer still owns it — closing a tracer that was replaced by a newer
// one leaves the newer tap untouched.
func (t *Tracer) Close() {
	t.closed = true
	if t.e != nil && t.e.TapOwner == t {
		t.e.Tap = nil
		t.e.TapOwner = nil
	}
}

// PathOf returns the observation points (in order) of one packet UID —
// the packet's actual route through the network.
func (t *Tracer) PathOf(uid uint64) []topology.NodeRef {
	var out []topology.NodeRef
	for i := range t.Records {
		if t.Records[i].Packet.UID == uid {
			out = append(out, t.Records[i].Point)
		}
	}
	return out
}

// encodeRecord writes one record body: timestamp (i64), point kind
// (u8), point index (i32), wire length (u32), wire bytes.
func encodeRecord(w io.Writer, at simtime.Time, point topology.NodeRef, wire []byte) error {
	if err := binary.Write(w, binary.BigEndian, int64(at)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, uint8(point.Kind)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, point.Idx); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, uint32(len(wire))); err != nil {
		return err
	}
	_, err := w.Write(wire)
	return err
}

// WriteTo serializes the trace. Format: magic, record count (u64), then
// the records (see encodeRecord).
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	if err := binary.Write(bw, binary.BigEndian, magic); err != nil {
		return n, err
	}
	n += int64(len(magic))
	if err := binary.Write(bw, binary.BigEndian, uint64(len(t.Records))); err != nil {
		return n, err
	}
	n += 8
	for i := range t.Records {
		r := &t.Records[i]
		wire := r.Packet.Marshal()
		if err := encodeRecord(bw, r.At, r.Point, wire); err != nil {
			return n, err
		}
		n += 17 + int64(len(wire))
	}
	return n, bw.Flush()
}

// readRecord parses one record body. Read asks only for records the
// header counted, so any EOF here — inside a record or at a record
// boundary — is a truncated file and reported as io.ErrUnexpectedEOF.
func readRecord(br *bufio.Reader) (Record, error) {
	var at int64
	var kind uint8
	var idx int32
	var wireLen uint32
	unexpectEOF := func(err error) error {
		if errors.Is(err, io.EOF) {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	if err := binary.Read(br, binary.BigEndian, &at); err != nil {
		return Record{}, unexpectEOF(err)
	}
	if err := binary.Read(br, binary.BigEndian, &kind); err != nil {
		return Record{}, unexpectEOF(err)
	}
	if err := binary.Read(br, binary.BigEndian, &idx); err != nil {
		return Record{}, unexpectEOF(err)
	}
	if err := binary.Read(br, binary.BigEndian, &wireLen); err != nil {
		return Record{}, unexpectEOF(err)
	}
	if wireLen > packet.MTU {
		return Record{}, fmt.Errorf("ptrace: wire length %d exceeds MTU", wireLen)
	}
	wire := make([]byte, wireLen)
	if _, err := io.ReadFull(br, wire); err != nil {
		return Record{}, unexpectEOF(err)
	}
	p, err := packet.Unmarshal(wire)
	if err != nil {
		return Record{}, err
	}
	return Record{
		At:     simtime.Time(at),
		Point:  topology.NodeRef{Kind: topology.NodeKind(kind), Idx: idx},
		Packet: p,
	}, nil
}

// Read parses a trace produced by WriteTo.
func Read(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if err := binary.Read(br, binary.BigEndian, &m); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, errors.New("ptrace: bad magic")
	}
	var count uint64
	if err := binary.Read(br, binary.BigEndian, &count); err != nil {
		return nil, err
	}
	const maxRecords = 1 << 30
	if count > maxRecords {
		return nil, fmt.Errorf("ptrace: implausible record count %d", count)
	}
	// The count is untrusted input: reserve at most a bounded amount up
	// front and let append grow the rest as records actually arrive, so
	// a 16-byte file claiming 2^30 records cannot reserve gigabytes.
	out := make([]Record, 0, min(count, 4096))
	for i := uint64(0); i < count; i++ {
		rec, err := readRecord(br)
		if err != nil {
			return nil, fmt.Errorf("ptrace: record %d: %w", i, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// Dump renders the trace in a tcpdump-like human-readable form, one
// line per record.
func (t *Tracer) Dump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := range t.Records {
		r := &t.Records[i]
		point := "host"
		if r.Point.Kind == topology.KindSwitch {
			point = "sw"
		}
		if _, err := fmt.Fprintf(bw, "%-12s %s%-4d %s\n", r.At, point, r.Point.Idx, r.Packet); err != nil {
			return err
		}
	}
	return bw.Flush()
}
