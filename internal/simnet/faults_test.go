package simnet

// Engine-level fault-state semantics: drop-on-downed-link, the
// dual-endpoint switch-failure counter, gateway re-balancing, loss-window
// determinism, and the alloc-freedom of the ECMP reroute path.

import (
	"testing"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

// TestLinkFaultDropsAndRestores: a downed link accepts nothing (drops
// count as FaultDrops and Drops), and restoring it resumes delivery.
func TestLinkFaultDropsAndRestores(t *testing.T) {
	f := newFixture(t, gwScheme{})
	src, dst := f.vips[0], f.vips[10]
	pip, _ := f.net.Lookup(dst)
	host := f.hostOf(src)
	a, b := topology.HostRef(host), topology.SwitchRef(f.e.Topo.Hosts[host].ToR)

	if err := f.e.SetLinkFault(a, b, true); err != nil {
		t.Fatal(err)
	}
	send := func(id uint64) {
		p := packet.NewData(id, 0, 1000, src, dst, 0)
		p.DstPIP = pip
		p.Resolved = true
		f.e.HostSend(host, p)
		f.e.Run(simtime.Never)
	}
	send(1)
	if f.e.C.FaultDrops != 1 || f.e.C.Drops != 1 || f.e.C.Delivered != 0 {
		t.Fatalf("downed link: %+v", f.e.C)
	}
	// Idempotence: one restore undoes a re-failed link.
	if err := f.e.SetLinkFault(a, b, true); err != nil {
		t.Fatal(err)
	}
	if err := f.e.SetLinkFault(a, b, false); err != nil {
		t.Fatal(err)
	}
	send(2)
	if f.e.C.Delivered != 1 {
		t.Fatalf("restored link did not deliver: %+v", f.e.C)
	}
	if err := f.e.SetLinkFault(a, topology.SwitchRef(999), true); err == nil {
		t.Fatal("non-adjacent link fault accepted")
	}
}

// TestSwitchFaultBlocksBothEndpoints pins the per-link fault counter: a
// link between two failed switches must stay blocked until BOTH have
// recovered — a bool would reopen it at the first recovery.
func TestSwitchFaultBlocksBothEndpoints(t *testing.T) {
	f := newFixture(t, gwScheme{})
	// Any fabric link: ToR 0 and its first fabric neighbor.
	if len(f.e.swNbr[0]) == 0 {
		t.Fatal("switch 0 has no fabric neighbor")
	}
	l := f.e.swNbr[0][0]
	nbr := l.dstSw
	if err := f.e.SetSwitchFault(0, true); err != nil {
		t.Fatal(err)
	}
	if err := f.e.SetSwitchFault(nbr, true); err != nil {
		t.Fatal(err)
	}
	if l.swFaults != 2 {
		t.Fatalf("link between two failed switches has swFaults=%d, want 2", l.swFaults)
	}
	if err := f.e.SetSwitchFault(0, false); err != nil {
		t.Fatal(err)
	}
	if l.swFaults != 1 {
		t.Fatalf("after one recovery swFaults=%d, want 1 (still blocked)", l.swFaults)
	}
	if err := f.e.SetSwitchFault(nbr, false); err != nil {
		t.Fatal(err)
	}
	if l.swFaults != 0 {
		t.Fatalf("after both recoveries swFaults=%d, want 0", l.swFaults)
	}
}

// TestGatewayOutageRebalances: senders never pick an outaged gateway
// instance, and when every instance is dark the hash-preferred pick is
// kept (the packet then dies at the dead gateway — hosts have no oracle).
func TestGatewayOutageRebalances(t *testing.T) {
	f := newFixture(t, gwScheme{})
	gws := f.e.Gateways()
	downPIP := f.e.Topo.Hosts[gws[0]].PIP
	if err := f.e.SetGatewayFault(gws[0], true); err != nil {
		t.Fatal(err)
	}
	for flow := uint64(0); flow < 200; flow++ {
		if got := f.e.GatewayFor(netaddr.PIP(7), flow); got == downPIP {
			t.Fatalf("flow %d resolved to the outaged gateway", flow)
		}
	}
	// All dark: the hash pick must come back unchanged, not loop forever.
	for _, g := range gws {
		if err := f.e.SetGatewayFault(g, true); err != nil {
			t.Fatal(err)
		}
	}
	for flow := uint64(0); flow < 50; flow++ {
		p := f.e.GatewayFor(netaddr.PIP(7), flow)
		host, ok := f.e.Topo.HostByPIP(p)
		if !ok {
			t.Fatalf("flow %d resolved to a non-host PIP %v", flow, p)
		}
		if !f.e.GatewayFaulted(host) {
			t.Fatal("all gateways dark but GatewayFor returned a healthy one")
		}
	}
	// A non-gateway host must be rejected.
	srv := f.e.Topo.Servers()[0]
	if err := f.e.SetGatewayFault(srv, true); err == nil {
		t.Fatal("gateway fault on a server host accepted")
	}
}

// TestLossWindowDeterministic: with the same loss seed the window drops
// exactly the same packets; with a different seed the tally (almost
// surely) differs somewhere over 400 trials.
func TestLossWindowDeterministic(t *testing.T) {
	run := func(seed int64) int64 {
		f := newFixture(t, gwScheme{})
		src, dst := f.vips[0], f.vips[10]
		pip, _ := f.net.Lookup(dst)
		host := f.hostOf(src)
		a, b := topology.HostRef(host), topology.SwitchRef(f.e.Topo.Hosts[host].ToR)
		f.e.SetLossSeed(seed)
		if err := f.e.SetLinkLoss(a, b, 0.4); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			p := packet.NewData(uint64(i), 0, 1000, src, dst, 0)
			p.DstPIP = pip
			p.Resolved = true
			f.e.HostSend(host, p)
			f.e.Run(simtime.Never)
		}
		if err := f.e.SetLinkLoss(a, b, 0); err != nil {
			t.Fatal(err)
		}
		return f.e.C.LossDrops
	}
	a1, a2, b1 := run(11), run(11), run(12)
	if a1 == 0 {
		t.Fatal("loss window dropped nothing at rate 0.4")
	}
	if a1 != a2 {
		t.Fatalf("same seed, different loss drops: %d vs %d", a1, a2)
	}
	if a1 == b1 {
		t.Logf("different seeds coincided (%d drops); legal but unlikely", a1)
	}
}

// TestEcmpForwardWithFaultsAllocFree is the fault-path twin of the
// steady-state guard: with a failed spine forcing reroutes, the ECMP
// forward path — fault check, usable-hop scan, serialization — must
// still allocate nothing.
func TestEcmpForwardWithFaultsAllocFree(t *testing.T) {
	f := newFixture(t, gwScheme{})
	sw, dstToR, p := faultBenchSetup(t, f)
	for i := 0; i < 8; i++ {
		f.e.ecmpForward(sw, dstToR, p)
		f.e.Q.Run(simtime.Never)
	}
	before := f.e.C.Rerouted
	allocs := testing.AllocsPerRun(200, func() {
		f.e.ecmpForward(sw, dstToR, p)
		f.e.Q.Run(simtime.Never)
	})
	if allocs != 0 {
		t.Fatalf("fault reroute path allocates %v per packet, want 0", allocs)
	}
	if f.e.C.Rerouted == before {
		t.Fatal("no packet was rerouted; the fault path was not exercised")
	}
}

// faultBenchSetup prepares a cross-pod forward where the packet's
// hash-preferred next hop is failed, forcing the reroute scan on every
// forward.
func faultBenchSetup(tb testing.TB, f *fixture) (sw, dstToR int32, p *packet.Packet) {
	tb.Helper()
	src, dst := f.vips[0], f.vips[200]
	pip, _ := f.net.Lookup(dst)
	p = packet.NewData(7, 0, 1000, src, dst, 0)
	p.DstPIP = pip
	p.Resolved = true
	p.SentAt = simtime.Time(1)
	sw = f.e.Topo.Hosts[f.hostOf(src)].ToR
	dstToR = f.e.Topo.Hosts[f.hostOf(dst)].ToR
	hops := f.e.Topo.NextHops(sw, dstToR)
	if len(hops) < 2 {
		tb.Fatal("need at least two next hops to exercise rerouting")
	}
	// Fail the hop the flow's hash prefers so every forward reroutes.
	pre := f.e.C.Rerouted
	f.e.ecmpForward(sw, dstToR, p)
	f.e.Q.Run(simtime.Never)
	if f.e.C.Rerouted != pre {
		// Healthy run: find the chosen hop by failing hops until a
		// forward reroutes. Deterministic, so one pass suffices.
		tb.Fatal("unexpected reroute before any fault")
	}
	for _, h := range hops {
		if err := f.e.SetSwitchFault(h, true); err != nil {
			tb.Fatal(err)
		}
		f.e.ecmpForward(sw, dstToR, p)
		f.e.Q.Run(simtime.Never)
		rerouted := f.e.C.Rerouted != pre
		if rerouted {
			return sw, dstToR, p // h is the preferred hop; keep it failed
		}
		if err := f.e.SetSwitchFault(h, false); err != nil {
			tb.Fatal(err)
		}
	}
	tb.Fatal("failed to find the hash-preferred hop")
	return
}

// BenchmarkEcmpForwardWithFaults measures the fabric forward with an
// active fault forcing a reroute on every packet, for comparison with
// BenchmarkEcmpForward's healthy fast path.
func BenchmarkEcmpForwardWithFaults(b *testing.B) {
	f := newFixture(b, gwScheme{})
	sw, dstToR, p := faultBenchSetup(b, f)
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
