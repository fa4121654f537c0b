package simnet

// Hot-path guards for the allocation-free event model: steady-state
// alloc-freedom of the link serializer and fabric forwarding, and
// regression tests for the switch-buffer gauge, gateway-less topologies,
// and in-flight accounting.

import (
	"strings"
	"testing"

	"switchv2p/internal/eventq"
	"switchv2p/internal/packet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/vnet"
)

// bareLink builds a host-egress link wired to a throwaway engine, with
// delivery going nowhere: the pure serializer, nothing downstream.
func bareLink() (*Engine, *link) {
	e := &Engine{Q: &eventq.Queue{}}
	l := &link{
		e:          e,
		bps:        100_000_000_000,
		delay:      simtime.Microsecond,
		fromSwitch: -1,
		dst:        e,
		dstSw:      -1,
		dstHost:    -1, // unbound sink: delivery goes nowhere
	}
	return e, l
}

// TestLinkSerializerSteadyStateAllocFree is the acceptance guard: once
// the event queue and the link's ring are warm, pushing a packet through
// serialization and propagation allocates nothing.
func TestLinkSerializerSteadyStateAllocFree(t *testing.T) {
	e, l := bareLink()
	p := packet.NewData(1, 0, 1000, 1, 2, 3)
	// Warm up: grows the event queue and the ring to their steady-state
	// sizes.
	for i := 0; i < 8; i++ {
		l.enqueue(p)
		e.Q.Run(simtime.Never)
	}
	allocs := testing.AllocsPerRun(200, func() {
		l.enqueue(p)
		e.Q.Run(simtime.Never)
	})
	if allocs != 0 {
		t.Fatalf("steady-state serializer path allocates %v per packet, want 0", allocs)
	}
}

// TestSwitchLinkSteadyStateAllocFree covers the switch-egress variant:
// shared-buffer accounting and the buffer-gauge readings must stay on the
// allocation-free path too.
func TestSwitchLinkSteadyStateAllocFree(t *testing.T) {
	f := newFixture(t, gwScheme{})
	l := f.e.swNbr[0][0]
	l.dstSw, l.dstHost = -1, -1 // unbind the sink: cut off downstream hops
	p := packet.NewData(1, 0, 1000, 1, 2, 3)
	for i := 0; i < 8; i++ {
		l.enqueue(p)
		f.e.Q.Run(simtime.Never)
	}
	allocs := testing.AllocsPerRun(200, func() {
		l.enqueue(p)
		f.e.Q.Run(simtime.Never)
	})
	if allocs != 0 {
		t.Fatalf("switch-egress serializer path allocates %v per packet, want 0", allocs)
	}
}

// TestEcmpForwardSteadyStateAllocFree pushes a resolved packet from a
// ToR across the fabric to delivery: the whole forwarding chain — ECMP
// next-hop selection, adjacency lookup, every hop's serializer — must be
// allocation-free once warm.
func TestEcmpForwardSteadyStateAllocFree(t *testing.T) {
	f := newFixture(t, gwScheme{})
	src, dst := f.vips[0], f.vips[200] // distinct pods: full fabric path
	pip, _ := f.net.Lookup(dst)
	p := packet.NewData(7, 0, 1000, src, dst, 0)
	p.DstPIP = pip
	p.Resolved = true
	p.SentAt = simtime.Time(1)
	sw := f.e.Topo.Hosts[f.hostOf(src)].ToR
	dstToR := f.e.Topo.Hosts[f.hostOf(dst)].ToR
	for i := 0; i < 8; i++ {
		f.e.ecmpForward(sw, dstToR, p)
		f.e.Q.Run(simtime.Never)
	}
	allocs := testing.AllocsPerRun(200, func() {
		f.e.ecmpForward(sw, dstToR, p)
		f.e.Q.Run(simtime.Never)
	})
	if allocs != 0 {
		t.Fatalf("fabric forward path allocates %v per packet, want 0", allocs)
	}
}

// TestBufGaugeDrainsToZero is the dequeue-update regression test: after
// a run drains, BufferGauge's last-touched occupancy must fall back to
// zero (it used to stay at the last-enqueue occupancy forever) while the
// peak stays.
func TestBufGaugeDrainsToZero(t *testing.T) {
	f := newFixture(t, gwScheme{})
	src, dst := f.vips[0], f.vips[10]
	pip, _ := f.net.Lookup(dst)
	for i := 0; i < 20; i++ {
		p := packet.NewData(1, i, 1400, src, dst, 0)
		p.DstPIP = pip
		p.Resolved = true
		f.e.HostSend(f.hostOf(src), p)
	}
	f.e.Run(simtime.Never)
	last, peak := f.e.BufferGauge()
	if peak == 0 {
		t.Fatal("buffer gauge never observed occupancy")
	}
	if last != 0 {
		t.Fatalf("buffer gauge reads %d after drain, want 0 (peak %d)", last, peak)
	}
}

// TestLinkQueueBoundedUnderSaturation: a link that never drains advances
// its ring indices forever, and the ring must not grow with them. One
// arrival per departure (a packet is one event, its delivery) holds a
// standing backlog for thousands of packets; the ring stays within twice
// the backlog's high-water mark.
func TestLinkQueueBoundedUnderSaturation(t *testing.T) {
	e, l := bareLink()
	p := packet.NewData(1, 0, 1000, 1, 2, 3)
	for i := 0; i < 3; i++ {
		l.enqueue(p)
	}
	high := 0
	for i := 0; i < 10000; i++ {
		l.enqueue(p)
		high = max(high, l.inFlight())
		e.Q.Step()
		if l.inFlight() == 0 {
			t.Fatalf("link drained after %d packets: the test no longer saturates it", i)
		}
	}
	if len(l.ring) > 2*high {
		t.Fatalf("after %d packets the ring has %d slots for a backlog of at most %d", l.tail, len(l.ring), high)
	}
}

// TestGatewayForNoGatewaysPanics checks the divide-by-zero fix: on a
// topology without gateway hosts, GatewayFor must fail loudly with a
// descriptive message instead of an anonymous integer divide panic.
func TestGatewayForNoGatewaysPanics(t *testing.T) {
	cfg := topology.FT8()
	cfg.GatewayPods = nil
	cfg.GatewaysPerPod = 0
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.New(topo)
	n.PlaceRoundRobin(64)
	e := New(topo, n, gwScheme{}, DefaultConfig())
	if got := len(e.Gateways()); got != 0 {
		t.Fatalf("gateway-less topology reports %d gateways", got)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("GatewayFor on a gateway-less topology did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "no gateway hosts") {
			t.Fatalf("panic message %v not descriptive", r)
		}
	}()
	e.GatewayFor(1, 1)
}

// TestInFlightPacketsCountsPropagation pins the repaired semantics: a
// packet counts as in flight from link acceptance until it reaches the
// next node, including the propagation window after serialization ends
// (previously missed between serializer completion and delivery).
func TestInFlightPacketsCountsPropagation(t *testing.T) {
	f := newFixture(t, gwScheme{})
	src, dst := f.vips[0], f.vips[10]
	pip, _ := f.net.Lookup(dst)
	p := packet.NewData(1, 0, 1000, src, dst, 0)
	p.DstPIP = pip
	p.Resolved = true
	f.e.HostSend(f.hostOf(src), p)
	if got := f.e.InFlightPackets(); got != 1 {
		t.Fatalf("in flight after send = %d, want 1 (serializing)", got)
	}
	// One nanosecond past its serialization end the packet is purely in
	// propagation flight toward the ToR — the window the old queue-length
	// accounting missed.
	up := f.e.hostUp[f.hostOf(src)]
	mid, during := up.slot(up.head).end()+1, -1
	f.e.Q.At(mid, func() { during = f.e.InFlightPackets() })
	f.e.Q.Run(mid)
	if during != 1 || up.inFlight() != 1 {
		t.Fatalf("in flight during propagation = %d, want 1 on the host's link", during)
	}
	f.e.Run(simtime.Never)
	if got := f.e.InFlightPackets(); got != 0 {
		t.Fatalf("in flight after drain = %d, want 0", got)
	}
	if f.e.C.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", f.e.C.Delivered)
	}
}

// BenchmarkLinkSerializer measures the per-packet cost of the serializer
// hot path; it must report 0 allocs/op.
func BenchmarkLinkSerializer(b *testing.B) {
	e, l := bareLink()
	p := packet.NewData(1, 0, 1000, 1, 2, 3)
	for i := 0; i < 8; i++ { // warm the pools
		l.enqueue(p)
		e.Q.Run(simtime.Never)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.enqueue(p)
		e.Q.Run(simtime.Never)
	}
}

// TestLinkSerializerBenchmarkAllocFree runs BenchmarkLinkSerializer under
// testing.Benchmark and asserts the allocation rate the benchmark would
// merely print: 0 allocs/op, as a failing test rather than a number in a
// report.
func TestLinkSerializerBenchmarkAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a benchmark")
	}
	r := testing.Benchmark(BenchmarkLinkSerializer)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Fatalf("serializer path allocates %d/op in steady state, want 0", allocs)
	}
}

// BenchmarkEcmpForward measures a resolved packet's full fabric
// traversal — adjacency lookup, ECMP hash, per-hop serialization —
// from source ToR to destination host.
func BenchmarkEcmpForward(b *testing.B) {
	f := newFixture(b, gwScheme{})
	src, dst := f.vips[0], f.vips[200]
	pip, _ := f.net.Lookup(dst)
	p := packet.NewData(7, 0, 1000, src, dst, 0)
	p.DstPIP = pip
	p.Resolved = true
	p.SentAt = simtime.Time(1)
	sw := f.e.Topo.Hosts[f.hostOf(src)].ToR
	dstToR := f.e.Topo.Hosts[f.hostOf(dst)].ToR
	for i := 0; i < 8; i++ {
		f.e.ecmpForward(sw, dstToR, p)
		f.e.Q.Run(simtime.Never)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.e.ecmpForward(sw, dstToR, p)
		f.e.Q.Run(simtime.Never)
	}
}
