package transport

import (
	"testing"

	"switchv2p/internal/baselines"
	"switchv2p/internal/core"
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/vnet"
)

// §4 "Packet reordering and TCP": when a stream initially misses the
// cache and the cache is populated mid-stream, later packets take the
// short (cache-hit) path and overtake earlier packets still queued
// behind the 40 µs gateway. The paper argues modern TCP's reordering
// tolerance absorbs this. These tests verify both halves: in-network
// cache population really does reorder packets, and a tolerant
// transport absorbs it while an aggressive one retransmits spuriously.

// reorderDetector counts out-of-order data arrivals per flow.
type reorderDetector struct {
	lastSeq map[uint64]int
	events  int
}

func newReorderDetector() *reorderDetector {
	return &reorderDetector{lastSeq: make(map[uint64]int)}
}

func (d *reorderDetector) observe(p *packet.Packet) {
	if p.Kind != packet.Data || p.Retx {
		return
	}
	if last, ok := d.lastSeq[p.FlowID]; ok && p.Seq < last {
		d.events++
	}
	if p.Seq > d.lastSeq[p.FlowID] {
		d.lastSeq[p.FlowID] = p.Seq
	}
}

// TestCachePopulationReordersMidStream: a UDP constant-rate stream (no
// ACK clocking) straddles the instant the gateway ToR learns the
// mapping: packets sent before it arrive ~40 µs later than packets sent
// after, which overtake them.
func TestCachePopulationReordersMidStream(t *testing.T) {
	topo, err := topology.New(topology.FT8())
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.New(topo)
	vips := n.PlaceRoundRobin(256)
	scheme := core.New(topo, core.DefaultOptions(1024))
	e := simnet.New(topo, n, scheme, simnet.DefaultConfig())
	a := New(e, DefaultConfig())

	det := newReorderDetector()
	prev := e.Handler
	e.Handler = func(host int32, p *packet.Packet) {
		det.observe(p)
		prev(host, p)
	}
	rec := a.AddFlow(FlowSpec{
		ID: 1, Src: vips[0], Dst: vips[9], Proto: UDP,
		Packets: 200, PacketPayload: 500, Interval: simtime.Microsecond,
	})
	e.Run(simtime.Never)
	if rec.PacketsGot != 200 {
		t.Fatalf("got %d packets", rec.PacketsGot)
	}
	if det.events == 0 {
		t.Fatal("cache population produced no reordering — expected overtaking")
	}
	if scheme.S.Hits == 0 {
		t.Fatal("no cache hits: the scenario did not exercise population")
	}
}

// blackhole consumes every packet at the first switch, giving tests
// full manual control over the ACK stream a sender sees.
type blackhole struct{}

func (blackhole) Name() string { return "blackhole" }
func (blackhole) SenderResolve(e *simnet.Engine, host int32, p *packet.Packet) bool {
	p.Resolved = true
	p.DstPIP = e.Topo.Hosts[host].PIP // irrelevant: consumed at first hop
	return true
}
func (blackhole) SwitchArrive(e *simnet.Engine, sw int32, from topology.NodeRef, p *packet.Packet) bool {
	return false
}
func (blackhole) HostMisdeliver(e *simnet.Engine, host int32, p *packet.Packet) {}
func (blackhole) FlushCache(int32)                                              {}

// reorderedAckStream replays the cumulative-ACK stream a receiver would
// emit when segments {2,3} of a 10-segment window are overtaken by
// segments 4..9: ACKs 1,2 then six duplicate ACKs of 2, then full
// catch-up.
func reorderedAckStream(s *flow) {
	s.onAck(s.host, 1)
	s.onAck(s.host, 2)
	for i := 0; i < 6; i++ {
		s.onAck(s.host, 2) // duplicate ACKs caused by reordering, not loss
	}
	s.onAck(s.host, 10)
}

func TestDupThreshControlsSpuriousRetransmits(t *testing.T) {
	build := func(dupThresh int) *flow {
		topo, err := topology.New(topology.FT8())
		if err != nil {
			t.Fatal(err)
		}
		n := vnet.New(topo)
		vips := n.PlaceRoundRobin(256)
		e := simnet.New(topo, n, blackhole{}, simnet.DefaultConfig())
		cfg := DefaultConfig()
		cfg.DupThresh = dupThresh
		a := New(e, cfg)
		a.AddFlow(FlowSpec{ID: 1, Src: vips[0], Dst: vips[9], Proto: TCP, Bytes: 14000})
		e.Q.Step() // run the flow-start event: the initial window is sent
		return a.flows[1]
	}

	// Aggressive legacy threshold: the six reorder-induced dupACKs
	// trigger a spurious fast retransmit.
	aggressive := build(3)
	reorderedAckStream(aggressive)
	if aggressive.rec.Retransmits == 0 {
		t.Fatal("dupThresh=3 did not fast-retransmit on 6 dupACKs")
	}

	// RACK-style tolerance: the same ACK stream causes no retransmit.
	tolerant := build(100)
	reorderedAckStream(tolerant)
	if tolerant.rec.Retransmits != 0 {
		t.Fatalf("dupThresh=100 retransmitted %d times on mere reordering",
			tolerant.rec.Retransmits)
	}
	if tolerant.una != 10 {
		t.Fatalf("sender did not absorb the catch-up ACK: una=%d", tolerant.una)
	}
}

func TestNoReorderingUnderNoCache(t *testing.T) {
	// Control: with a single fixed path per flow (always via the same
	// gateway), same-flow packets stay in order.
	topo, err := topology.New(topology.FT8())
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.New(topo)
	vips := n.PlaceRoundRobin(256)
	e := simnet.New(topo, n, baselines.NewNoCache(), simnet.DefaultConfig())
	a := New(e, DefaultConfig())
	det := newReorderDetector()
	prev := e.Handler
	e.Handler = func(host int32, p *packet.Packet) {
		det.observe(p)
		prev(host, p)
	}
	rec := a.AddFlow(FlowSpec{ID: 1, Src: vips[0], Dst: vips[9], Proto: TCP, Bytes: 500_000})
	e.Run(simtime.Never)
	if !rec.Completed {
		t.Fatal("flow incomplete")
	}
	if det.events != 0 {
		t.Fatalf("NoCache produced %d reorder events on a single path", det.events)
	}
}
