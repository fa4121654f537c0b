package ptrace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"switchv2p/internal/baselines"
	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/transport"
	"switchv2p/internal/vnet"
)

type world struct {
	topo *topology.Topology
	net  *vnet.Net
	e    *simnet.Engine
	vips []netaddr.VIP
}

func newWorld(t testing.TB) *world {
	t.Helper()
	topo, err := topology.New(topology.FT8())
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.New(topo)
	vips := n.PlaceRoundRobin(256)
	e := simnet.New(topo, n, baselines.NewNoCache(), simnet.DefaultConfig())
	return &world{topo: topo, net: n, e: e, vips: vips}
}

func (w *world) send(flow uint64, seq int, src, dst netaddr.VIP) {
	h, _ := w.net.HostOf(src)
	w.e.HostSend(h, packet.NewData(flow, seq, 500, src, dst, 0))
}

func TestCaptureAndPath(t *testing.T) {
	w := newWorld(t)
	tr := New(w.e, Options{})
	w.send(1, 0, w.vips[0], w.vips[9])
	w.e.Run(simtime.Never)

	if len(tr.Records) == 0 {
		t.Fatal("no records captured")
	}
	// Every record carries monotonically non-decreasing timestamps.
	for i := 1; i < len(tr.Records); i++ {
		if tr.Records[i].At < tr.Records[i-1].At {
			t.Fatal("timestamps not monotonic")
		}
	}
	// The packet's path: starts at the sender ToR, visits a gateway host,
	// ends at the destination host.
	uid := tr.Records[0].Packet.UID
	path := tr.PathOf(uid)
	if len(path) < 8 {
		t.Fatalf("path too short: %d points", len(path))
	}
	first := path[0]
	srcHost, _ := w.net.HostOf(w.vips[0])
	if first.Kind != topology.KindSwitch || first.Idx != w.topo.Hosts[srcHost].ToR {
		t.Fatalf("path starts at %+v, want sender ToR", first)
	}
	last := path[len(path)-1]
	dstHost, _ := w.net.HostOf(w.vips[9])
	if last.Kind != topology.KindHost || last.Idx != dstHost {
		t.Fatalf("path ends at %+v, want destination host %d", last, dstHost)
	}
	sawGateway := false
	for _, pt := range path {
		if pt.Kind == topology.KindHost && w.topo.Hosts[pt.Idx].Gateway {
			sawGateway = true
		}
	}
	if !sawGateway {
		t.Fatal("NoCache path skipped the gateway")
	}
}

func TestSnapshotsAreImmutable(t *testing.T) {
	w := newWorld(t)
	tr := New(w.e, Options{})
	w.send(1, 0, w.vips[0], w.vips[9])
	w.e.Run(simtime.Never)
	// Early observations must still be unresolved even though the live
	// packet was later resolved by the gateway.
	first := tr.Records[0]
	if first.Packet.Resolved {
		t.Fatal("first observation already resolved: snapshot aliased the live packet")
	}
	last := tr.Records[len(tr.Records)-1]
	if !last.Packet.Resolved {
		t.Fatal("final observation not resolved")
	}
}

// TestRecordsOutliveTheRun: a record's packet is the tracer's own copy, so
// it still reads what the tap saw after the run has drained and every live
// packet of the TCP flow has been released — and, on a pooling engine,
// rewritten as a later segment or ACK.
func TestRecordsOutliveTheRun(t *testing.T) {
	w := newWorld(t)
	tr := New(w.e, Options{})
	traced := w.e.Tap
	var seen []packet.Packet
	w.e.Tap = func(at topology.NodeRef, p *packet.Packet) {
		seen = append(seen, *p)
		traced(at, p)
	}
	transport.New(w.e, transport.DefaultConfig()).AddFlow(transport.FlowSpec{
		ID: 1, Src: w.vips[0], Dst: w.vips[9], Proto: transport.TCP, Bytes: 60 * packet.MaxPayload})
	w.e.Run(simtime.Never)
	if len(tr.Records) < 120 || len(tr.Records) != len(seen) {
		t.Fatalf("%d records for %d observed arrivals of a 60-segment flow and its ACKs", len(tr.Records), len(seen))
	}
	for i, r := range tr.Records {
		// Clone on both sides: the copies differ from the live packet only
		// in not belonging to a pool.
		if got, want := r.Packet, seen[i].Clone(); *got != *want {
			t.Fatalf("record %d reads %+v after the run, the tap saw %+v", i, *got, *want)
		}
	}
}

func TestFilters(t *testing.T) {
	w := newWorld(t)
	tr := New(w.e, Options{FlowID: 2})
	w.send(1, 0, w.vips[0], w.vips[9])
	w.send(2, 0, w.vips[1], w.vips[10])
	w.e.Run(simtime.Never)
	if len(tr.Records) == 0 {
		t.Fatal("no records")
	}
	for _, r := range tr.Records {
		if r.Packet.FlowID != 2 {
			t.Fatalf("captured flow %d, filter was 2", r.Packet.FlowID)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	w := newWorld(t)
	tr := New(w.e, Options{})
	w.send(1, 0, w.vips[0], w.vips[9])
	w.send(2, 3, w.vips[4], w.vips[30])
	w.e.Run(simtime.Never)

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr.Records) {
		t.Fatalf("read %d records, wrote %d", len(got), len(tr.Records))
	}
	for i := range got {
		a, b := got[i], tr.Records[i]
		if a.At != b.At || a.Point != b.Point {
			t.Fatalf("record %d header mismatch: %+v vs %+v", i, a, b)
		}
		if a.Packet.FlowID != b.Packet.FlowID || a.Packet.Seq != b.Packet.Seq ||
			a.Packet.SrcVIP != b.Packet.SrcVIP || a.Packet.DstPIP != b.Packet.DstPIP ||
			a.Packet.Resolved != b.Packet.Resolved {
			t.Fatalf("record %d packet mismatch:\n%+v\n%+v", i, a.Packet, b.Packet)
		}
	}
}

// hugeCountHeader is a complete SV2PTRC1 header claiming 2^30-1 records
// with no record bytes behind it: 16 bytes that used to make Read
// reserve ~24 GiB and die with "runtime: out of memory".
var hugeCountHeader = []byte("SV2PTRC1\x00\x00\x00\x00\x3f\xff\xff\xff")

func TestReadRejectsGarbage(t *testing.T) {
	w := newWorld(t)
	tr := New(w.e, Options{})
	w.send(1, 0, w.vips[0], w.vips[9])
	w.e.Run(simtime.Never)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"garbage", []byte("not a trace file at all")},
		{"truncated valid trace", buf.Bytes()[:buf.Len()/2]},
		{"huge count, no records", hugeCountHeader},
	} {
		if _, err := Read(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}

	// The retired EOF-terminated format is not a second dialect: its
	// magic is rejected like any other.
	retired := append([]byte("SV2PTRC2"), buf.Bytes()[16:]...)
	if _, err := Read(bytes.NewReader(retired)); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("Read(SV2PTRC2 stream) = %v, want bad magic", err)
	}

	// Why the header counts records: a file cut exactly at a record
	// boundary (17 header bytes plus the wire bytes before the end) still
	// fails, with ErrUnexpectedEOF.
	lastWire := len(tr.Records[len(tr.Records)-1].Packet.Marshal())
	cut := buf.Bytes()[:buf.Len()-17-lastWire]
	if _, err := Read(bytes.NewReader(cut)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("Read(cut at record boundary) = %v, want ErrUnexpectedEOF", err)
	}
}

func TestClose(t *testing.T) {
	w := newWorld(t)
	tr := New(w.e, Options{})
	tr.Close()
	w.send(1, 0, w.vips[0], w.vips[9])
	w.e.Run(simtime.Never)
	if len(tr.Records) != 0 {
		t.Fatal("tracer captured after Close")
	}
}

// TestCloseDoesNotClobberReplacement: closing a tracer that was
// replaced by a newer one must leave the newer tracer capturing.
func TestCloseDoesNotClobberReplacement(t *testing.T) {
	w := newWorld(t)
	old := New(w.e, Options{})
	replacement := New(w.e, Options{})
	old.Close()
	if w.e.Tap == nil {
		t.Fatal("old tracer's Close removed the replacement's tap")
	}
	w.send(1, 0, w.vips[0], w.vips[9])
	w.e.Run(simtime.Never)
	if len(replacement.Records) == 0 {
		t.Error("replacement tracer captured nothing after old.Close")
	}
	if len(old.Records) != 0 {
		t.Error("closed tracer kept capturing")
	}
	replacement.Close()
	if w.e.Tap != nil || w.e.TapOwner != nil {
		t.Error("owning tracer's Close must detach the tap")
	}
}

func TestDump(t *testing.T) {
	w := newWorld(t)
	tr := New(w.e, Options{})
	w.send(1, 0, w.vips[0], w.vips[9])
	w.e.Run(simtime.Never)
	var buf bytes.Buffer
	if err := tr.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if len(out) == 0 {
		t.Fatal("empty dump")
	}
	lines := 0
	for _, c := range out {
		if c == '\n' {
			lines++
		}
	}
	if lines != len(tr.Records) {
		t.Fatalf("dump has %d lines for %d records", lines, len(tr.Records))
	}
	for _, want := range []string{"sw", "host", "flow=1"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("dump missing %q:\n%s", want, out[:200])
		}
	}
}

// failWriter errors after n bytes, to exercise write error paths.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, bytes.ErrTooLarge
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, bytes.ErrTooLarge
	}
	return n, nil
}

func TestWriteToFailingWriter(t *testing.T) {
	w := newWorld(t)
	tr := New(w.e, Options{})
	w.send(1, 0, w.vips[0], w.vips[9])
	w.e.Run(simtime.Never)
	if _, err := tr.WriteTo(&failWriter{left: 16}); err == nil {
		t.Fatal("failing writer accepted")
	}
	if err := tr.Dump(&failWriter{left: 4}); err == nil {
		t.Fatal("failing dump writer accepted")
	}
}

// FuzzRead: arbitrary bytes must never panic the trace parser.
func FuzzRead(f *testing.F) {
	w := newWorld(f) // testing.F implements testing.TB
	tr := New(w.e, Options{})
	w.send(1, 0, w.vips[0], w.vips[9])
	w.e.Run(simtime.Never)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err == nil {
		f.Add(buf.Bytes())
	}
	f.Add([]byte("SV2PTRC1garbage"))
	f.Add([]byte{})
	f.Add(hugeCountHeader)
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, r := range records {
			_ = r.Packet.Size()
		}
	})
}
