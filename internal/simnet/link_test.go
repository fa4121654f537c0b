package simnet

// The link's ring against an independent reference: a FIFO serializer
// and a constant delay, written the obvious way and kept here so that it
// shares nothing with link.go.

import (
	"math/rand"
	"sync"
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
	start    uint32 // head = settled = tail before the first packet
	boundary bool   // the far end is in another shard: packets leave through the mailbox
	gaps     []simtime.Duration
	payloads []int
	// buffer > 0 is the switch's BufferBytes, shared by two egress links:
	// packet i takes link on[i]. Otherwise there is one link, and the
	// buffer never fills.
	buffer int
	on     []int
}

// link returns the egress link packet i takes.
func (c linkCase) link(i int) int {
	if c.buffer > 0 {
		return c.on[i]
	}
	return 0
}

// modelPkt is what the reference says about one packet: when it arrives,
// whether the shared buffer turns it away, when its last bit leaves the
// serializer, when the far end has it, and how full the buffer is once
// it is in.
type modelPkt struct {
	arrive, txEnd, deliver simtime.Time
	size, link             int
	dropped                bool
	held                   int
}

// linkModel is the reference: a packet starts serializing when it
// arrives or when its predecessor on the same link has left, whichever
// is later, and is delivered one delay after its own last bit. With a
// finite buffer it is admitted iff its own bytes plus those of earlier
// admissions whose serialization ends after its arrival fit.
func linkModel(c linkCase, sizes []int) []modelPkt {
	out := make([]modelPkt, len(sizes))
	var arrive simtime.Time
	var txEnd [2]simtime.Time
	for i, size := range sizes {
		arrive = arrive.Add(c.gaps[i])
		m := modelPkt{arrive: arrive, size: size, link: c.link(i), held: size}
		for _, o := range out[:i] {
			if !o.dropped && o.txEnd > arrive {
				m.held += o.size
			}
		}
		if c.buffer > 0 && m.held > c.buffer {
			m.dropped = true
		} else {
			txEnd[m.link] = max(arrive, txEnd[m.link]).Add(simtime.TransmitTime(size, c.bps))
			m.txEnd, m.deliver = txEnd[m.link], txEnd[m.link].Add(c.delay)
		}
		out[i] = m
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
	grewAllBusy  bool // the ring grew while packets were in flight, on the serializer and waiting
	grewWrapped  bool // the ring grew while its occupied slots wrapped past the end
	indexWrapped bool // an index passed ^uint32(0)
	drops        int
}

// linkTopo is the fabric runLinkCase borrows a ToR and two of its hosts
// from: the shared-buffer settle walks the ToR's links to its hosts.
var linkTopo = sync.OnceValue(func() *topology.Topology {
	cfg := topology.FT8()
	cfg.Pods, cfg.RacksPerPod, cfg.SpinesPerPod, cfg.Cores, cfg.ServersPerRack = 2, 2, 2, 4, 2
	cfg.GatewayPods = []int{0}
	topo, err := topology.New(cfg)
	if err != nil {
		panic(err)
	}
	return topo
})

// runLinkCase drives one or two switch-egress links through the case,
// event by event, and checks them against linkModel: which packets the
// buffer turned away, every delivery instant and the delivery order on
// each link, and — whenever an instant's events have all run —
// InFlightPackets, BufferUsed and BufferGauge's peak; after every event
// no ring is longer than twice its occupancy high-water mark.
func runLinkCase(t *testing.T, c linkCase) linkRun {
	t.Helper()
	buffer := 1 << 40
	if c.buffer > 0 {
		buffer = c.buffer
	}
	// Two egress links of one ToR, one down to a host and one filed as a
	// fabric link, so that the settle walks both kinds; the second
	// delivers to another host too, where the tap sees it, and that
	// host's own link stays idle. With an unbounded buffer only the first
	// carries packets.
	topo := *linkTopo()
	topo.Cfg.BufferBytes = buffer
	tor := topo.ToRs()[0]
	hosts := topo.HostsAtToR(tor)[:2]
	e := &Engine{
		Q:         &eventq.Queue{},
		Topo:      &topo,
		bufUsed:   make([]int, len(topo.Switches)),
		bufLastSw: -1,
		C:         Counters{SwitchDrops: make([]int64, len(topo.Switches))},
		swNbr:     make([][]*link, len(topo.Switches)),
		hostDown:  make([]*link, len(topo.Hosts)),
	}
	links := make([]*link, len(hosts))
	for i, h := range hosts {
		links[i] = &link{e: e, dst: e, bps: c.bps, delay: c.delay, fromSwitch: tor, dstSw: -1, dstHost: h,
			head: c.start, settled: c.start, tail: c.start}
	}
	e.hostDown[hosts[0]], e.swNbr[tor] = links[0], links[1:]
	e.hostDown[hosts[1]] = &link{e: e, dst: e, bps: c.bps, fromSwitch: tor, dstSw: -1, dstHost: -1}
	linkTo := func(host int32) int {
		if host == hosts[1] {
			return 1
		}
		return 0
	}
	got := make([][]linkDelivery, len(links))
	// Learning packets: the host counts them as stray control and is done,
	// so the tap is the whole far end.
	e.Tap = func(at topology.NodeRef, p *packet.Packet) {
		got[linkTo(at.Idx)] = append(got[linkTo(at.Idx)], linkDelivery{e.Q.Now(), p.Seq})
	}
	if c.boundary {
		for _, l := range links {
			l.boundary, l.dstDom = true, 1
		}
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
		l := links[c.link(i)]
		if n := len(l.ring); n > 0 && l.inFlight() == n {
			now := e.Q.Now()
			propagating := l.slot(l.head).end() <= now
			waiting := l.inFlight() > 1 && l.slot(l.tail-2).end() > now
			run.grewAllBusy = run.grewAllBusy || (propagating && waiting)
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
	high := make([]int, len(links))
	for e.Q.Step() {
		now := e.Q.Now()
		for i, l := range links {
			run.indexWrapped = run.indexWrapped || l.tail < c.start
			high[i] = max(high[i], l.inFlight())
			if len(l.ring) > max(ringMin, 2*high[i]) {
				t.Fatalf("t=%d: link %d's ring has %d slots, occupancy high-water mark %d", now, i, len(l.ring), high[i])
			}
		}
		if next, ok := e.Q.PeekTime(); ok && next == now {
			continue // the instant is not over
		}
		inFlight, buf, peak := 0, 0, 0
		for _, m := range want {
			if m.dropped || m.arrive > now {
				continue
			}
			left := m.deliver
			if c.boundary {
				left = m.txEnd
			}
			if now < left {
				inFlight++
			}
			if now < m.txEnd {
				buf += m.size
			}
			peak = max(peak, m.held)
		}
		if got := e.BufferUsed(tor); e.InFlightPackets() != inFlight || got != buf {
			t.Fatalf("t=%d: in flight %d, buffer %d B; model says %d, %d B", now, e.InFlightPackets(), got, inFlight, buf)
		}
		if _, got := e.BufferGauge(); got != int64(peak) {
			t.Fatalf("t=%d: buffer peak %d B, model says %d B", now, got, peak)
		}
	}
	for i, l := range links {
		if l.head != l.tail || l.settled != l.tail {
			t.Fatalf("after the drain: link %d has head %d settled %d tail %d", i, l.head, l.settled, l.tail)
		}
		for j := range l.ring {
			if l.ring[j].p != nil {
				t.Fatalf("after the drain: link %d's slot %d still holds a packet", i, j)
			}
		}
	}
	if last, _ := e.BufferGauge(); e.bufUsed[tor] != 0 || last != 0 {
		t.Fatalf("after the drain: buffer %d B, gauge %d B", e.bufUsed[tor], last)
	}

	if c.boundary {
		for _, r := range e.shard.mail[0][1].recs {
			got[linkTo(r.l.dstHost)] = append(got[linkTo(r.l.dstHost)], linkDelivery{r.at, r.p.Seq})
		}
	}
	for i := range links {
		var on []int
		for j, m := range want {
			if !m.dropped && m.link == i {
				on = append(on, j)
			}
		}
		if len(got[i]) != len(on) {
			t.Fatalf("link %d delivered %d packets, model says %d", i, len(got[i]), len(on))
		}
		for k, g := range got[i] {
			if m := want[on[k]]; g.seq != on[k] || g.at != m.deliver {
				t.Fatalf("link %d delivery %d: packet %d at t=%d, model says packet %d at t=%d", i, k, g.seq, g.at, on[k], m.deliver)
			}
		}
	}
	for _, m := range want {
		if m.dropped {
			run.drops++
		}
	}
	if e.C.Drops != int64(run.drops) || e.C.SwitchDrops[tor] != int64(run.drops) {
		t.Fatalf("%d drops (%d at the switch), model says %d", e.C.Drops, e.C.SwitchDrops[tor], run.drops)
	}
	run.ringLen = len(links[0].ring)
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

// withBuffer makes c a two-link case over a buffer of the given size,
// spreading the packets over the links at random.
func withBuffer(rng *rand.Rand, c linkCase, buffer int) linkCase {
	c.buffer = buffer
	for range c.gaps {
		c.on = append(c.on, rng.Intn(2))
	}
	return c
}

// wrapStart puts the three indices three packets short of wrapping.
const wrapStart = ^uint32(0) - 2

func TestLinkMatchesModel(t *testing.T) {
	drops := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomLinkCase(rng, 50+rng.Intn(400))
		if seed%2 == 0 {
			c.start = wrapStart
		}
		c.boundary = seed%5 == 0
		if seed%3 == 0 {
			// A buffer of one to four MTUs: full often, and settled
			// often by serializations that ended between two events.
			c = withBuffer(rng, c, 1600+rng.Intn(4800))
		}
		drops += runLinkCase(t, c).drops
	}
	if drops == 0 {
		t.Fatal("no random case fills its buffer: the finite-buffer cases no longer cover what they are for")
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
// bit 1: indices about to wrap, bit 2: 10 Gb/s, bits 3-6: delay in 128 ns
// steps, bit 7: two links sharing a 4 500-byte buffer); every following
// pair of bytes is one packet, its gap in ns and its payload in units of
// 6 bytes (with the shared buffer, an odd payload byte takes the second
// link). Seed corpus: f.Add below and testdata/fuzz/FuzzLinkModel.
func FuzzLinkModel(f *testing.F) {
	f.Add([]byte{0x40, 0, 200, 0, 200, 0, 200, 0, 200, 0, 200, 0, 200})
	f.Add([]byte{0x43, 10, 10, 10, 250, 0, 0, 255, 1, 3, 100, 3, 100, 3, 100, 3, 100, 3, 100})
	f.Add([]byte{0x80, 0, 200, 0, 201, 0, 200, 0, 201, 0, 200, 0, 201, 200, 201, 0, 200})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 1 {
			return
		}
		if len(in) > 1+2*512 {
			in = in[:1+2*512]
		}
		c := linkCase{bps: 100_000_000_000, delay: simtime.Duration(in[0]>>3&15) * 128, boundary: in[0]&1 != 0}
		if in[0]&2 != 0 {
			c.start = wrapStart
		}
		if in[0]&4 != 0 {
			c.bps = 10_000_000_000
		}
		if in[0]&0x80 != 0 {
			c.buffer = 4500
		}
		for i := 1; i+1 < len(in); i += 2 {
			c.gaps = append(c.gaps, simtime.Duration(in[i]))
			c.payloads = append(c.payloads, int(in[i+1])*6)
			c.on = append(c.on, int(in[i+1]&1))
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
