package simnet

import (
	"math/rand"
	"reflect"
	"testing"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/vnet"
)

// gwScheme is a minimal pure-gateway scheme (NoCache semantics) used to
// exercise the engine in isolation from the real schemes.
type gwScheme struct{}

func (gwScheme) Name() string { return "test-gw" }

func (gwScheme) SenderResolve(e *Engine, host int32, p *packet.Packet) bool {
	if !p.Resolved {
		p.DstPIP = e.GatewayFor(p.SrcPIP, p.FlowID)
	}
	return true
}

func (gwScheme) SwitchArrive(e *Engine, sw int32, from topology.NodeRef, p *packet.Packet) bool {
	return true
}

func (gwScheme) FlushCache(int32) {}

func (gwScheme) HostMisdeliver(e *Engine, host int32, p *packet.Packet) {
	if pip, ok := e.Net.FollowMe(host, p.DstVIP); ok {
		p.DstPIP = pip
		p.Resolved = true
		e.Resend(host, p)
		return
	}
	p.Resolved = false
	p.DstPIP = e.GatewayFor(p.SrcPIP, p.FlowID)
	e.Resend(host, p)
}

type fixture struct {
	e    *Engine
	net  *vnet.Net
	vips []netaddr.VIP
}

func newFixture(t testing.TB, scheme Scheme) *fixture {
	t.Helper()
	topo, err := topology.New(topology.FT8())
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.New(topo)
	vips := n.PlaceRoundRobin(256) // 2 VMs per server
	e := New(topo, n, scheme, DefaultConfig())
	return &fixture{e: e, net: n, vips: vips}
}

func (f *fixture) hostOf(v netaddr.VIP) int32 {
	h, ok := f.net.HostOf(v)
	if !ok {
		panic("unknown vip")
	}
	return h
}

func TestDeliveryViaGateway(t *testing.T) {
	f := newFixture(t, gwScheme{})
	src, dst := f.vips[0], f.vips[10]
	var deliveredTo int32 = -1
	var deliveredPkt *packet.Packet
	f.e.Handler = func(host int32, p *packet.Packet) {
		deliveredTo = host
		deliveredPkt = p
	}
	p := packet.NewData(1, 0, 1000, src, dst, 0)
	f.e.HostSend(f.hostOf(src), p)
	f.e.Run(simtime.Never)

	if deliveredTo != f.hostOf(dst) {
		t.Fatalf("delivered to host %d, want %d", deliveredTo, f.hostOf(dst))
	}
	if f.e.C.GatewayPackets != 1 {
		t.Fatalf("gateway packets = %d, want 1", f.e.C.GatewayPackets)
	}
	if !deliveredPkt.Resolved {
		t.Fatal("delivered packet not resolved")
	}
	wantPIP, _ := f.net.Lookup(dst)
	if deliveredPkt.DstPIP != wantPIP {
		t.Fatalf("delivered DstPIP = %v, want %v", deliveredPkt.DstPIP, wantPIP)
	}
	// Latency must include the 40 µs gateway plus at least 8 links of
	// propagation, and be well under a millisecond on an idle network.
	lat := f.e.C.AvgPacketLatency()
	if lat < 48*simtime.Microsecond || lat > 60*simtime.Microsecond {
		t.Fatalf("latency = %v, want ~40µs + path", lat)
	}
	if f.e.C.Drops != 0 || f.e.C.Misdeliveries != 0 {
		t.Fatalf("unexpected drops/misdeliveries: %+v", f.e.C)
	}
}

func TestDirectDeliveryBypassesGateway(t *testing.T) {
	f := newFixture(t, gwScheme{})
	src, dst := f.vips[0], f.vips[10]
	p := packet.NewData(1, 0, 1000, src, dst, 0)
	pip, _ := f.net.Lookup(dst)
	p.DstPIP = pip
	p.Resolved = true
	delivered := 0
	f.e.Handler = func(host int32, q *packet.Packet) { delivered++ }
	f.e.HostSend(f.hostOf(src), p)
	f.e.Run(simtime.Never)
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	if f.e.C.GatewayPackets != 0 {
		t.Fatalf("gateway packets = %d, want 0", f.e.C.GatewayPackets)
	}
	// Direct path latency is just links: microseconds, far below 40 µs.
	if lat := f.e.C.AvgPacketLatency(); lat > 15*simtime.Microsecond {
		t.Fatalf("direct latency = %v, want < 15µs", lat)
	}
}

func TestMisdeliveryFollowMe(t *testing.T) {
	f := newFixture(t, gwScheme{})
	src, dst := f.vips[0], f.vips[10]
	oldHost := f.hostOf(dst)
	// Move dst elsewhere, then deliver a packet pre-resolved to the OLD host.
	newHost := f.hostOf(f.vips[40])
	if err := f.net.Migrate(dst, newHost); err != nil {
		t.Fatal(err)
	}
	p := packet.NewData(1, 0, 1000, src, dst, 0)
	p.DstPIP = f.e.Topo.Hosts[oldHost].PIP // stale resolution
	p.Resolved = true
	var deliveredTo int32 = -1
	f.e.Handler = func(host int32, q *packet.Packet) { deliveredTo = host }
	f.e.HostSend(f.hostOf(src), p)
	f.e.Run(simtime.Never)
	if deliveredTo != newHost {
		t.Fatalf("delivered to %d, want new host %d", deliveredTo, newHost)
	}
	if f.e.C.Misdeliveries != 1 {
		t.Fatalf("misdeliveries = %d, want 1", f.e.C.Misdeliveries)
	}
	if f.e.C.LastMisdelivered == 0 {
		t.Fatal("LastMisdelivered not recorded")
	}
	if !p.WasMisdelivered {
		t.Fatal("WasMisdelivered not set")
	}
}

func TestGatewayResolvesAfterMigration(t *testing.T) {
	// An unresolved packet sent after migration reaches the NEW host via
	// the gateway (the authoritative DB is already updated).
	f := newFixture(t, gwScheme{})
	src, dst := f.vips[0], f.vips[10]
	newHost := f.hostOf(f.vips[40])
	if err := f.net.Migrate(dst, newHost); err != nil {
		t.Fatal(err)
	}
	var deliveredTo int32 = -1
	f.e.Handler = func(host int32, q *packet.Packet) { deliveredTo = host }
	f.e.HostSend(f.hostOf(src), packet.NewData(1, 0, 1000, src, dst, 0))
	f.e.Run(simtime.Never)
	if deliveredTo != newHost {
		t.Fatalf("delivered to %d, want %d", deliveredTo, newHost)
	}
	if f.e.C.Misdeliveries != 0 {
		t.Fatalf("misdeliveries = %d, want 0", f.e.C.Misdeliveries)
	}
}

func TestSwitchByteAccounting(t *testing.T) {
	f := newFixture(t, gwScheme{})
	src, dst := f.vips[0], f.vips[10]
	f.e.HostSend(f.hostOf(src), packet.NewData(1, 0, 1000, src, dst, 0))
	f.e.Run(simtime.Never)
	// The packet visits the sender ToR at least once, and total switch
	// bytes must be hops * size.
	p := packet.NewData(1, 0, 1000, src, dst, 0)
	size := int64(p.Size())
	total := f.e.C.TotalSwitchBytes()
	if total == 0 || total%size != 0 {
		t.Fatalf("switch bytes %d not a multiple of packet size %d", total, size)
	}
	hops := total / size
	if hops < 6 {
		t.Fatalf("packet visited %d switches, want >= 6 (via gateway)", hops)
	}
	if f.e.C.DataHopsSum != hops {
		t.Fatalf("DataHopsSum = %d, want %d", f.e.C.DataHopsSum, hops)
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	f := newFixture(t, gwScheme{})
	// Many flows between the same host pair should use multiple spines.
	src, dst := f.vips[0], f.vips[200]
	pip, _ := f.net.Lookup(dst)
	for flow := uint64(0); flow < 64; flow++ {
		p := packet.NewData(flow, 0, 100, src, dst, 0)
		p.DstPIP = pip
		p.Resolved = true
		f.e.HostSend(f.hostOf(src), p)
	}
	f.e.Run(simtime.Never)
	srcPod := f.e.Topo.Hosts[f.hostOf(src)].Pod
	spinesUsed := 0
	for _, s := range f.e.Topo.Switches {
		if s.Pod == srcPod && s.Role.IsSpine() && f.e.C.SwitchPackets[s.Idx] > 0 {
			spinesUsed++
		}
	}
	if spinesUsed < 2 {
		t.Fatalf("ECMP used %d spines, want >= 2", spinesUsed)
	}
}

func TestBufferOverflowDrops(t *testing.T) {
	topo, err := topology.New(func() topology.Config {
		c := topology.FT8()
		c.BufferBytes = 4000 // absurdly small: a few packets
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.New(topo)
	vips := n.PlaceRoundRobin(256)
	e := New(topo, n, gwScheme{}, DefaultConfig())
	// Incast: two senders blast the same receiver, whose 100G host link
	// drains slower than the 200G aggregate arrival rate; the receiving
	// ToR's tiny buffer (4000B) must overflow.
	dst := vips[10]
	pip, _ := n.Lookup(dst)
	const perSender = 50
	for s, src := range []netaddr.VIP{vips[0], vips[2]} {
		srcHost, _ := n.HostOf(src)
		for i := 0; i < perSender; i++ {
			p := packet.NewData(uint64(s), i, 1400, src, dst, 0)
			p.DstPIP = pip
			p.Resolved = true
			e.HostSend(srcHost, p)
		}
	}
	e.Run(simtime.Never)
	if e.C.Drops == 0 {
		t.Fatal("expected buffer-overflow drops")
	}
	if e.C.Delivered == 0 {
		t.Fatal("expected some deliveries despite drops")
	}
	if e.C.Delivered+e.C.Drops != 2*perSender {
		t.Fatalf("delivered %d + drops %d != %d", e.C.Delivered, e.C.Drops, 2*perSender)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Counters {
		f := newFixture(t, gwScheme{})
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			src := f.vips[rng.Intn(len(f.vips))]
			dst := f.vips[rng.Intn(len(f.vips))]
			if src == dst {
				continue
			}
			f.e.HostSend(f.hostOf(src), packet.NewData(uint64(i), 0, 500, src, dst, 0))
		}
		f.e.Run(simtime.Never)
		return f.e.C
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.GatewayPackets != b.GatewayPackets ||
		a.LatencySumNs != b.LatencySumNs || a.DataHopsSum != b.DataHopsSum {
		t.Fatalf("runs differ:\n%+v\n%+v", a, b)
	}
}

func TestFIFOWithinLink(t *testing.T) {
	f := newFixture(t, gwScheme{})
	src, dst := f.vips[0], f.vips[10]
	pip, _ := f.net.Lookup(dst)
	var seqs []int
	f.e.Handler = func(host int32, p *packet.Packet) { seqs = append(seqs, p.Seq) }
	for i := 0; i < 50; i++ {
		p := packet.NewData(1, i, 1000, src, dst, 0)
		p.DstPIP = pip
		p.Resolved = true
		f.e.HostSend(f.hostOf(src), p)
	}
	f.e.Run(simtime.Never)
	if len(seqs) != 50 {
		t.Fatalf("delivered %d, want 50", len(seqs))
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("same-flow packets reordered: position %d has seq %d", i, s)
		}
	}
}

func TestGatewayUnknownVIPDrops(t *testing.T) {
	f := newFixture(t, gwScheme{})
	src := f.vips[0]
	p := packet.NewData(1, 0, 100, src, netaddr.VIP(0xdeadbeef), 0)
	f.e.HostSend(f.hostOf(src), p)
	f.e.Run(simtime.Never)
	if f.e.C.GatewayUnknownVIP != 1 || f.e.C.Delivered != 0 {
		t.Fatalf("unknown VIP handling wrong: %+v", f.e.C)
	}
}

func TestActiveGatewaysSubset(t *testing.T) {
	topo, err := topology.New(topology.FT8())
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.New(topo)
	n.PlaceRoundRobin(256)
	cfg := DefaultConfig()
	cfg.ActiveGateways = 4
	e := New(topo, n, gwScheme{}, cfg)
	if got := len(e.Gateways()); got != 4 {
		t.Fatalf("active gateways = %d, want 4", got)
	}
	seen := make(map[netaddr.PIP]bool)
	for flow := uint64(0); flow < 1000; flow++ {
		seen[e.GatewayFor(netaddr.PIP(flow+1), flow)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("GatewayFor spread over %d gateways, want 4", len(seen))
	}
}

func TestIsGatewayPIP(t *testing.T) {
	f := newFixture(t, gwScheme{})
	g := f.e.Topo.Gateways()[0]
	if !f.e.IsGatewayPIP(f.e.Topo.Hosts[g].PIP) {
		t.Fatal("IsGatewayPIP false for gateway")
	}
	s := f.e.Topo.Servers()[0]
	if f.e.IsGatewayPIP(f.e.Topo.Hosts[s].PIP) {
		t.Fatal("IsGatewayPIP true for server")
	}
	if f.e.IsGatewayPIP(netaddr.PIP(0xffffffff)) {
		t.Fatal("IsGatewayPIP true for unknown address")
	}
}

func TestStrayControlPacketCounted(t *testing.T) {
	f := newFixture(t, gwScheme{})
	dstHost := f.hostOf(f.vips[10])
	lp := packet.NewLearning(netaddr.Mapping{VIP: 1, PIP: 2}, 0, f.e.Topo.Hosts[dstHost].PIP)
	srcToR := f.e.Topo.Hosts[f.hostOf(f.vips[0])].ToR
	f.e.InjectFromSwitch(srcToR, lp)
	f.e.Run(simtime.Never)
	if f.e.C.StrayControlPkts != 1 {
		t.Fatalf("stray control packets = %d, want 1", f.e.C.StrayControlPkts)
	}
	if f.e.C.LearningPkts != 1 {
		t.Fatalf("learning packets = %d, want 1", f.e.C.LearningPkts)
	}
}

func TestGatewayOverloadDropsAtGatewayToR(t *testing.T) {
	// Overloading a single gateway drops packets at the gateway ToR's
	// egress port toward the gateway (its 100G NIC is the bottleneck for
	// fabric-rate arrivals), as §5.3 observes with few gateways.
	topo, err := topology.New(func() topology.Config {
		c := topology.FT8()
		c.BufferBytes = 64_000 // small buffer to overflow quickly
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.New(topo)
	vips := n.PlaceRoundRobin(256)
	cfg := DefaultConfig()
	cfg.ActiveGateways = 1
	e := New(topo, n, gwScheme{}, cfg)
	// Many senders blast simultaneously through the one gateway.
	for i := 0; i < 60; i++ {
		src, dst := vips[i], vips[100+i%100]
		h, _ := n.HostOf(src)
		for seq := 0; seq < 8; seq++ {
			e.HostSend(h, packet.NewData(uint64(i+1), seq, 1400, src, dst, 0))
		}
	}
	e.Run(simtime.Never)
	if e.C.Drops == 0 {
		t.Fatalf("expected drops at the gateway ToR: %+v", e.C)
	}
	if e.C.Delivered == 0 {
		t.Fatal("expected some deliveries")
	}
}

// loopScheme forwards every packet in a circle: whenever its outer
// destination is a host under the switch it is at, the switch readdresses
// it to the other host, a rack away, so it never reaches either.
type loopScheme struct {
	gwScheme
	a, b netaddr.PIP
}

func (s loopScheme) SwitchArrive(e *Engine, sw int32, _ topology.NodeRef, p *packet.Packet) bool {
	if h, ok := e.Topo.HostByPIP(p.DstPIP); ok && e.Topo.Hosts[h].ToR == sw {
		p.DstPIP = s.a
		if p.DstPIP == e.Topo.Hosts[h].PIP {
			p.DstPIP = s.b
		}
	}
	return true
}

// TestHopBudgetEndsAForwardingLoop: a packet a buggy scheme sends in a
// circle is dropped at the switch it reaches past MaxHops, and counted,
// so the run drains and conservation holds.
func TestHopBudgetEndsAForwardingLoop(t *testing.T) {
	f := newFixture(t, gwScheme{})
	src, dst := f.vips[0], f.vips[200] // different pods
	a, b := f.e.Topo.Hosts[f.hostOf(src)].PIP, f.e.Topo.Hosts[f.hostOf(dst)].PIP
	f.e.Scheme = loopScheme{a: a, b: b}
	p := packet.NewData(1, 0, 1000, src, dst, 0)
	p.DstPIP, p.Resolved = b, true
	f.e.HostSend(f.hostOf(src), p)
	f.e.Run(simtime.Never)
	c := &f.e.C
	if c.LoopDrops != 1 || c.Drops != 1 || c.Delivered != 0 || f.e.Q.Len() != 0 {
		t.Fatalf("loop drops %d, drops %d, delivered %d, %d events pending; want 1, 1, 0, 0", c.LoopDrops, c.Drops, c.Delivered, f.e.Q.Len())
	}
	if gap := f.e.ConservationGap(); gap != 0 {
		t.Fatalf("conservation gap %d after the loop drop", gap)
	}
	var crossed int64
	for _, n := range c.SwitchPackets {
		crossed += n
	}
	if crossed != MaxHops {
		t.Fatalf("the looping packet crossed %d switches, want the budget of %d", crossed, MaxHops)
	}
}

// TestMergeScalarsCoversEveryField guards the hand-maintained field list
// in Counters.mergeScalars: a counter added to Counters but not to the
// merge would be lost at every shard barrier, and only sharded runs
// would notice. Every scalar of the source gets a distinct non-zero
// value; after the merge each must have arrived in the (zero)
// destination and be zero in the source, while the five shared
// per-switch / per-host slices keep their headers on both sides.
func TestMergeScalarsCoversEveryField(t *testing.T) {
	var src, dst Counters
	sv, dv := reflect.ValueOf(&src).Elem(), reflect.ValueOf(&dst).Elem()
	n := int64(0)
	slices := 0
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		n++
		switch f.Kind() {
		case reflect.Int64: // counters and the LastMisdelivered timestamp
			f.SetInt(n)
		case reflect.Slice:
			slices++
			f.Set(reflect.ValueOf([]int64{n}))
		default:
			t.Fatalf("Counters.%s has kind %s: teach mergeScalars and this test how it merges",
				sv.Type().Field(i).Name, f.Kind())
		}
	}
	if slices != 5 {
		t.Fatalf("Counters has %d slice fields, want the 5 that shard views share with the root", slices)
	}
	want := src
	dst.mergeScalars(&src)
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		got, from, orig := dv.Field(i), sv.Field(i), reflect.ValueOf(want).Field(i)
		if got.Kind() == reflect.Slice {
			if !got.IsNil() {
				t.Errorf("%s: merge wrote the destination's shared slice", name)
			}
			if from.Pointer() != orig.Pointer() || from.Len() != orig.Len() {
				t.Errorf("%s: merge replaced the source's shared slice header", name)
			}
			continue
		}
		if got.Int() != orig.Int() {
			t.Errorf("%s: merged value %d, want %d (field missing from mergeScalars?)", name, got.Int(), orig.Int())
		}
		if from.Int() != 0 {
			t.Errorf("%s: source still %d after merge, want 0 (add-and-zero)", name, from.Int())
		}
	}

	// LastMisdelivered is a timestamp: the merge keeps the later one.
	last := dst.LastMisdelivered
	dst.mergeScalars(&Counters{LastMisdelivered: last - 1})
	if dst.LastMisdelivered != last {
		t.Errorf("LastMisdelivered = %v after merging an earlier one, want %v", dst.LastMisdelivered, last)
	}
	dst.mergeScalars(&Counters{LastMisdelivered: last + 1})
	if dst.LastMisdelivered != last+1 {
		t.Errorf("LastMisdelivered = %v after merging a later one, want %v", dst.LastMisdelivered, last+1)
	}
}
