package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"switchv2p/internal/transport"
)

// Workload files are JSON-lines: a header object followed by one flow
// per line. The format is stable and diff-friendly, so generated
// workloads can be checked in, inspected, and replayed byte-identically.

type fileHeader struct {
	Format string `json:"format"`
	Name   string `json:"name"`
	Flows  int    `json:"flows"`
}

const formatID = "switchv2p-workload/1"

// Write serializes the workload.
func (w *Workload) Write(out io.Writer) error {
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(fileHeader{Format: formatID, Name: w.Name, Flows: len(w.Flows)}); err != nil {
		return err
	}
	for i := range w.Flows {
		if err := enc.Encode(&w.Flows[i]); err != nil {
			return fmt.Errorf("trace: encoding flow %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// maxPrealloc caps how many flows ReadWorkload reserves room for on the
// header's word alone; a longer file grows the slice as its flows arrive.
const maxPrealloc = 1 << 16

// ReadWorkload parses a workload written by Write. The input is
// untrusted: the header's flow count only sizes a bounded reservation,
// and a flow the engine would later panic on (or silently mis-file) is
// rejected here, by index.
func ReadWorkload(in io.Reader) (*Workload, error) {
	dec := json.NewDecoder(bufio.NewReader(in))
	var hdr fileHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if hdr.Format != formatID {
		return nil, fmt.Errorf("trace: unknown format %q", hdr.Format)
	}
	if hdr.Flows < 0 {
		return nil, fmt.Errorf("trace: negative flow count %d", hdr.Flows)
	}
	w := &Workload{Name: hdr.Name, Flows: make([]transport.FlowSpec, 0, min(hdr.Flows, maxPrealloc))}
	ids := make(map[uint64]struct{}, cap(w.Flows))
	for i := 0; i < hdr.Flows; i++ {
		var f transport.FlowSpec
		if err := dec.Decode(&f); err != nil {
			return nil, fmt.Errorf("trace: decoding flow %d: %w", i, err)
		}
		_, dup := ids[f.ID]
		switch {
		case f.Proto != transport.TCP && f.Proto != transport.UDP:
			return nil, fmt.Errorf("trace: flow %d: unknown Proto %d", i, f.Proto)
		case f.Start < 0:
			return nil, fmt.Errorf("trace: flow %d: negative Start %d", i, f.Start)
		case f.Bytes < 0 || f.Packets < 0 || f.PacketPayload < 0 || f.Interval < 0:
			return nil, fmt.Errorf("trace: flow %d: negative Bytes, Packets, PacketPayload or Interval", i)
		case f.PacketPayload > math.MaxUint16:
			return nil, fmt.Errorf("trace: flow %d: PacketPayload %d does not fit a packet (at most %d bytes)", i, f.PacketPayload, math.MaxUint16)
		case dup:
			return nil, fmt.Errorf("trace: flow %d: duplicate ID %d", i, f.ID)
		}
		ids[f.ID] = struct{}{}
		w.Flows = append(w.Flows, f)
	}
	return w, nil
}
