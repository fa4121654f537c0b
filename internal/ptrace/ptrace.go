// Package ptrace captures simulated packets at switch and host arrival
// points into a compact binary trace — the simulator's equivalent of a
// pcap capture. Records carry the simulated timestamp, the observation
// point, and the packet's full wire encoding (internal/packet's
// Marshal format), so traces are self-contained and replayable.
//
// Typical use (buffered):
//
//	tr := ptrace.New(engine, ptrace.Options{})
//	engine.Run(simtime.Never)
//	tr.WriteTo(file)
//
// Long-horizon runs stream instead: Options.Stream encodes each record
// to the writer as it is captured and retains nothing in memory, so
// capture cost is constant regardless of trace length:
//
//	tr := ptrace.New(engine, ptrace.Options{Stream: file})
//	engine.Run(simtime.Never)
//	tr.Close() // flush; check tr.StreamErr()
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

// magic identifies buffered trace files ("SV2PTRC1"): record count up
// front, then that many records.
var magic = [8]byte{'S', 'V', '2', 'P', 'T', 'R', 'C', '1'}

// magicStream identifies streamed trace files ("SV2PTRC2"): no count,
// records run until EOF. Written incrementally during capture.
var magicStream = [8]byte{'S', 'V', '2', 'P', 'T', 'R', 'C', '2'}

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
	// Kinds restricts capture to the listed packet kinds (nil = all).
	Kinds []packet.Kind
	// SwitchesOnly drops host observation points.
	SwitchesOnly bool
	// Limit stops capturing after N records (0 = unlimited).
	Limit int
	// Stream, when non-nil, switches the tracer to streaming capture:
	// records are encoded to the writer as they are observed (format
	// "SV2PTRC2", EOF-terminated) and are NOT retained in Records, so
	// arbitrarily long traces capture in constant memory. Call Close to
	// flush and check StreamErr for write failures.
	Stream io.Writer
}

func (o Options) match(at topology.NodeRef, p *packet.Packet) bool {
	if o.FlowID != 0 && p.FlowID != o.FlowID {
		return false
	}
	if o.SwitchesOnly && at.Kind != topology.KindSwitch {
		return false
	}
	if o.Kinds != nil {
		ok := false
		for _, k := range o.Kinds {
			if p.Kind == k {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Tracer collects records from an engine's Tap.
type Tracer struct {
	opts    Options
	e       *simnet.Engine
	Records []Record
	Dropped int // records skipped due to Limit

	captured  int // total records captured (buffered + streamed)
	closed    bool
	sw        *bufio.Writer
	streamErr error
}

// New installs a tracer as the engine's Tap and returns it. Installing a
// second tracer replaces the first (the replaced tracer stops observing
// and its Close becomes a flush-only no-op on the engine).
func New(e *simnet.Engine, opts Options) *Tracer {
	t := &Tracer{opts: opts, e: e}
	if opts.Stream != nil {
		t.sw = bufio.NewWriter(opts.Stream)
		if err := binary.Write(t.sw, binary.BigEndian, magicStream); err != nil {
			t.streamErr = err
		}
	}
	e.Tap = t.observe
	e.TapOwner = t
	return t
}

func (t *Tracer) observe(at topology.NodeRef, p *packet.Packet) {
	if t.closed || !t.opts.match(at, p) {
		return
	}
	if t.opts.Limit > 0 && t.captured >= t.opts.Limit {
		t.Dropped++
		return
	}
	t.captured++
	if t.sw != nil {
		// Streamed capture encodes in place: the packet's wire form is
		// serialized now, so no snapshot needs to be retained.
		if t.streamErr == nil {
			if err := encodeRecord(t.sw, t.e.Now(), at, p.Marshal()); err != nil {
				t.streamErr = err
			}
		}
		return
	}
	// Snapshot the packet: it mutates as it continues through the
	// network.
	t.Records = append(t.Records, Record{At: t.e.Now(), Point: at, Packet: p.Clone()})
}

// Close stops the tracer and, in streaming capture, flushes buffered
// bytes. The engine's tap is detached only if this tracer still owns it
// — closing a tracer that was replaced by a newer one leaves the newer
// tap untouched.
func (t *Tracer) Close() {
	t.closed = true
	if t.sw != nil {
		if err := t.sw.Flush(); err != nil && t.streamErr == nil {
			t.streamErr = err
		}
	}
	if t.e != nil && t.e.TapOwner == t {
		t.e.Tap = nil
		t.e.TapOwner = nil
	}
}

// StreamErr reports the first write error encountered by streaming
// capture (nil in buffered capture).
func (t *Tracer) StreamErr() error { return t.streamErr }

// Captured returns the number of records captured so far, including
// streamed records no longer held in memory.
func (t *Tracer) Captured() int { return t.captured }

// PathOf returns the observation points (in order) of one packet UID —
// the packet's actual route through the network. Buffered capture only:
// streamed records are not retained.
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
// (u8), point index (i32), wire length (u32), wire bytes. Shared by the
// buffered and streaming writers so the on-disk record layout cannot
// diverge.
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

// WriteTo serializes a buffered trace. Format: magic, record count
// (u64), then the records (see encodeRecord). A streaming tracer
// retains no records, so WriteTo on one produces an empty trace — its
// records already went to Options.Stream.
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

// readRecord parses one record body. io.EOF is returned only when the
// stream ends exactly at a record boundary; EOF inside a record is
// converted to io.ErrUnexpectedEOF so truncated streams fail loudly.
func readRecord(br *bufio.Reader) (Record, error) {
	var at int64
	var kind uint8
	var idx int32
	var wireLen uint32
	if err := binary.Read(br, binary.BigEndian, &at); err != nil {
		return Record{}, err
	}
	unexpectEOF := func(err error) error {
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return io.ErrUnexpectedEOF
		}
		return err
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

// Read parses a trace produced by WriteTo (SV2PTRC1, counted) or by
// streaming capture (SV2PTRC2, EOF-terminated).
func Read(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if err := binary.Read(br, binary.BigEndian, &m); err != nil {
		return nil, err
	}
	switch m {
	case magic:
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
	case magicStream:
		var out []Record
		for i := 0; ; i++ {
			rec, err := readRecord(br)
			if err == io.EOF {
				// Clean EOF at a record boundary ends the stream; EOF
				// inside a record arrives as ErrUnexpectedEOF instead.
				return out, nil
			}
			if err != nil {
				return nil, fmt.Errorf("ptrace: record %d: %w", i, err)
			}
			out = append(out, rec)
		}
	default:
		return nil, errors.New("ptrace: bad magic")
	}
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
