package simnet

// The link's ring against an independent reference: a FIFO serializer
// and a constant delay, written the obvious way and kept here so that it
// shares nothing with link.go.

import (
	"math/rand"
	"testing"

	"switchv2p/internal/eventq"
	"switchv2p/internal/packet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

// linkCase is one scenario: packet i arrives gaps[i] after packet i-1
// with payloads[i] bytes of payload.
type linkCase struct {
	bps      int64
	delay    simtime.Duration
	start    uint32 // head = tx = tail before the first packet
	boundary bool   // the far end is in another shard: packets leave through the mailbox
	gaps     []simtime.Duration
	payloads []int
}

// modelPkt is what the reference says about one packet: when it arrives,
// when its last bit leaves the serializer, when the far end has it.
type modelPkt struct {
	arrive, txEnd, deliver simtime.Time
	size                   int
}

// linkModel is the reference: a packet starts serializing when it
// arrives or when its predecessor's last bit has left, whichever is
// later, and is delivered one delay after its own last bit.
func linkModel(c linkCase, sizes []int) []modelPkt {
	out := make([]modelPkt, len(sizes))
	var arrive, txEnd simtime.Time
	for i, size := range sizes {
		arrive = arrive.Add(c.gaps[i])
		txEnd = max(arrive, txEnd).Add(simtime.TransmitTime(size, c.bps))
		out[i] = modelPkt{arrive: arrive, txEnd: txEnd, deliver: txEnd.Add(c.delay), size: size}
	}
	return out
}

type linkDelivery struct {
	at  simtime.Time
	seq int
}

// linkRun is what runLinkCase observed beyond the per-step checks.
type linkRun struct {
	ringLen      int
	grewAllBusy  bool // the ring grew while all three stages were occupied
	grewWrapped  bool // the ring grew while its occupied slots wrapped past the end
	indexWrapped bool // an index passed ^uint32(0)
}

// runLinkCase drives one switch-egress link through the case, event by
// event, and checks it against linkModel: every packet's delivery instant
// and the delivery order, and — whenever an instant's events have all run
// — InFlightPackets and the shared-buffer occupancy; after every event the
// ring is no longer than twice its occupancy high-water mark.
func runLinkCase(t *testing.T, c linkCase) linkRun {
	t.Helper()
	e := &Engine{
		Q:       &eventq.Queue{},
		Topo:    &topology.Topology{Cfg: topology.Config{BufferBytes: 1 << 40}, Hosts: make([]topology.Host, 1)},
		bufUsed: make([]int, 1),
	}
	l := &link{e: e, dst: e, bps: c.bps, delay: c.delay, fromSwitch: 0, dstSw: -1, dstHost: 0,
		head: c.start, tx: c.start, tail: c.start}
	e.hostDown = []*link{l}
	var got []linkDelivery
	// Learning packets: the host counts them as stray control and is done,
	// so the tap is the whole far end.
	e.Tap = func(_ topology.NodeRef, p *packet.Packet) { got = append(got, linkDelivery{e.Q.Now(), p.Seq}) }
	if c.boundary {
		l.boundary, l.dstDom = true, 1
		e.dom = 0
		e.shard = &sharding{mail: [][]mailbox{make([]mailbox, 2)}}
	}

	pkts := make([]*packet.Packet, len(c.gaps))
	sizes := make([]int, len(c.gaps))
	for i := range pkts {
		pkts[i] = &packet.Packet{Kind: packet.Learning, Seq: i, Payload: c.payloads[i]}
		sizes[i] = pkts[i].Size()
	}
	want := linkModel(c, sizes)

	var run linkRun
	// Each arrival schedules the next, so a later packet's arrival event is
	// queued behind the link events already pending for the same instant.
	var arrive func(i int)
	arrive = func(i int) {
		if n := len(l.ring); n > 0 && l.inFlight() == n {
			run.grewAllBusy = run.grewAllBusy || (l.head != l.tx && l.tail-l.tx > 1)
			run.grewWrapped = run.grewWrapped || l.head&uint32(n-1) != 0
		}
		l.enqueue(pkts[i])
		if i+1 < len(pkts) {
			e.Q.At(want[i+1].arrive, func() { arrive(i + 1) })
		}
	}
	if len(pkts) > 0 {
		e.Q.At(want[0].arrive, func() { arrive(0) })
	}
	high := 0
	for e.Q.Step() {
		now := e.Q.Now()
		run.indexWrapped = run.indexWrapped || l.tail < c.start
		high = max(high, l.inFlight())
		if len(l.ring) > max(ringMin, 2*high) {
			t.Fatalf("t=%d: ring has %d slots, occupancy high-water mark %d", now, len(l.ring), high)
		}
		if next, ok := e.Q.PeekTime(); ok && next == now {
			continue // the instant is not over
		}
		inFlight, buf := 0, 0
		for _, m := range want {
			left := m.deliver
			if c.boundary {
				left = m.txEnd
			}
			if m.arrive <= now && now < left {
				inFlight++
			}
			if m.arrive <= now && now < m.txEnd {
				buf += m.size
			}
		}
		if e.InFlightPackets() != inFlight || e.bufUsed[0] != buf {
			t.Fatalf("t=%d: in flight %d, buffer %d B; model says %d, %d B", now, e.InFlightPackets(), e.bufUsed[0], inFlight, buf)
		}
	}
	if l.head != l.tail || l.tx != l.tail || e.bufUsed[0] != 0 {
		t.Fatalf("after the drain: head %d tx %d tail %d, buffer %d B", l.head, l.tx, l.tail, e.bufUsed[0])
	}
	for i := range l.ring {
		if l.ring[i].p != nil {
			t.Fatalf("after the drain: slot %d still holds a packet", i)
		}
	}

	if c.boundary {
		for _, r := range e.shard.mail[0][1].recs {
			got = append(got, linkDelivery{r.at, r.p.Seq})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d packets delivered, want %d", len(got), len(want))
	}
	for i, g := range got {
		if g.seq != i || g.at != want[i].deliver {
			t.Fatalf("delivery %d: packet %d at t=%d, model says packet %d at t=%d", i, g.seq, g.at, i, want[i].deliver)
		}
	}
	run.ringLen = len(l.ring)
	return run
}

// randomLinkCase draws arrivals around the link's service rate so that
// the serializer is sometimes idle, sometimes backlogged.
func randomLinkCase(rng *rand.Rand, n int) linkCase {
	c := linkCase{bps: 100_000_000_000, delay: simtime.Duration(rng.Intn(1500))}
	if rng.Intn(4) == 0 {
		c.bps = 10_000_000_000
	}
	meanGap := 1 + rng.Intn(200)
	for i := 0; i < n; i++ {
		gap := rng.Intn(2 * meanGap)
		if rng.Intn(16) == 0 {
			gap = rng.Intn(5000) // a pause: the link drains
		}
		c.gaps = append(c.gaps, simtime.Duration(gap))
		c.payloads = append(c.payloads, rng.Intn(1461))
	}
	return c
}

// wrapStart puts the three indices three packets short of wrapping.
const wrapStart = ^uint32(0) - 2

func TestLinkMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomLinkCase(rng, 50+rng.Intn(400))
		if seed%2 == 0 {
			c.start = wrapStart
		}
		c.boundary = seed%5 == 0
		runLinkCase(t, c)
	}

	// A burst faster than the link drains it, with a delay of many
	// serialization times: the ring doubles several times while packets
	// are in flight, on the serializer and waiting, and while its occupied
	// slots straddle the end of the array.
	burst := linkCase{bps: 100_000_000_000, delay: 1000, start: wrapStart}
	for i := 0; i < 200; i++ {
		burst.gaps = append(burst.gaps, 60)
		burst.payloads = append(burst.payloads, 1000)
	}
	run := runLinkCase(t, burst)
	if !run.grewAllBusy || !run.grewWrapped || !run.indexWrapped || run.ringLen < 4*ringMin {
		t.Fatalf("burst case no longer covers what it is for: %+v", run)
	}

	// The same burst over a boundary link: packets leave the ring when
	// their last bit does, so only the waiting stage ever fills it.
	burst.boundary = true
	if run := runLinkCase(t, burst); !run.grewWrapped || !run.indexWrapped {
		t.Fatalf("boundary burst case no longer covers what it is for: %+v", run)
	}
}

// FuzzLinkModel lets the fuzzer search for arrivals on which the ring
// and the model disagree. The first byte picks the link (bit 0: boundary,
// bit 1: indices about to wrap, bit 2: 10 Gb/s, the rest: delay in 64 ns
// steps); every following pair of bytes is one packet, its gap in ns and
// its payload in units of 6 bytes. Seed corpus: f.Add below and
// testdata/fuzz/FuzzLinkModel.
func FuzzLinkModel(f *testing.F) {
	f.Add([]byte{0x80, 0, 200, 0, 200, 0, 200, 0, 200, 0, 200, 0, 200})
	f.Add([]byte{0x83, 10, 10, 10, 250, 0, 0, 255, 1, 3, 100, 3, 100, 3, 100, 3, 100, 3, 100})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 1 {
			return
		}
		if len(in) > 1+2*512 {
			in = in[:1+2*512]
		}
		c := linkCase{bps: 100_000_000_000, delay: simtime.Duration(in[0]>>3) * 64, boundary: in[0]&1 != 0}
		if in[0]&2 != 0 {
			c.start = wrapStart
		}
		if in[0]&4 != 0 {
			c.bps = 10_000_000_000
		}
		for i := 1; i+1 < len(in); i += 2 {
			c.gaps = append(c.gaps, simtime.Duration(in[i]))
			c.payloads = append(c.payloads, int(in[i+1])*6)
		}
		runLinkCase(t, c)
	})
}

// TestColdLinkCostsOneAllocation is the budget for a link's first use:
// the first packet over a fresh link allocates its ring and nothing else
// (no event record, no freelist, no queue), and the next hundred packets
// allocate nothing.
func TestColdLinkCostsOneAllocation(t *testing.T) {
	e, warm := bareLink()
	p := packet.NewData(1, 0, 1000, 1, 2, 3)
	for i := 0; i < 8; i++ { // the event queue's own slab grows on the first link's account
		warm.enqueue(p)
		e.Q.Run(simtime.Never)
	}
	// AllocsPerRun calls the function once to warm up, then once to
	// measure: a fresh link for each.
	var fresh [2]*link
	for i := range fresh {
		_, fresh[i] = bareLink()
		fresh[i].e = e
	}
	n := 0
	first := testing.AllocsPerRun(1, func() {
		fresh[n].enqueue(p)
		n++
		e.Q.Run(simtime.Never)
	})
	if first != 1 {
		t.Fatalf("first packet over a fresh link allocates %v times, want 1 (the ring)", first)
	}
	next := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			fresh[1].enqueue(p)
			e.Q.Run(simtime.Never)
		}
	})
	if next != 0 {
		t.Fatalf("the next hundred packets allocate %v times, want 0", next)
	}
}
