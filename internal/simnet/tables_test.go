package simnet

// The engine's link tables against the topology they were wired from:
// hopLink against NextHops, linkBetween against the edge list, and the
// links SetSwitchFault marks against the switch's incident edges.

import (
	"testing"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/vnet"
)

func newBareEngine(t *testing.T, cfg topology.Config) *Engine {
	t.Helper()
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(topo, vnet.New(topo), gwScheme{}, DefaultConfig())
}

// allLinks visits every link direction of the engine.
func (e *Engine) allLinks(visit func(*link)) {
	for h := range e.hostUp {
		visit(e.hostUp[h])
		visit(e.hostDown[h])
	}
	for _, nbrs := range e.swNbr {
		for _, l := range nbrs {
			visit(l)
		}
	}
}

// TestHopLinksParallelToNextHops: for every (switch, destination) the
// links ecmpForward indexes are the links toward NextHops(switch,
// destination), hop for hop — a link wired to the wrong slot, or two hops
// swapped inside one group, would silently change every ECMP choice.
func TestHopLinksParallelToNextHops(t *testing.T) {
	for _, cfg := range []topology.Config{topology.FT8(), topology.FT16()} {
		e := newBareEngine(t, cfg)
		n := int32(len(e.Topo.Switches))
		for sw := int32(0); sw < n; sw++ {
			for dst := int32(0); dst < n; dst++ {
				lo, hi := e.Topo.HopRange(sw, dst)
				links, hops := e.hopLink[lo:hi], e.Topo.NextHops(sw, dst)
				if len(links) != len(hops) {
					t.Fatalf("%d -> %d: %d links for %d next hops", sw, dst, len(links), len(hops))
				}
				for i, l := range links {
					if l == nil || l.fromSwitch != sw || l.dstSw != hops[i] {
						t.Fatalf("%d -> %d: link %d does not lead from %d to next hop %d: %+v", sw, dst, i, sw, hops[i], l)
					}
				}
			}
		}
	}
}

// TestEcmpForwardPicksTheHashedHop drives ecmpForward itself: the link
// that accepts the packet must lead to NextHops(sw, dst)[hash % len], the
// choice every golden digest was recorded with.
func TestEcmpForwardPicksTheHashedHop(t *testing.T) {
	e := newBareEngine(t, topology.FT8())
	n := int32(len(e.Topo.Switches))
	for sw := int32(0); sw < n; sw++ {
		for dst := int32(0); dst < n; dst++ {
			hops := e.Topo.NextHops(sw, dst)
			if len(hops) == 0 {
				continue
			}
			for flow := uint64(1); flow <= 3; flow++ {
				// Addressed to the destination switch, which drops it: the
				// packet leaves the network without a host in the picture.
				p := packet.NewData(flow, 0, 1000, 1, 2, 0)
				p.SrcPIP = netaddr.PIP(12345)
				p.DstPIP = e.Topo.Switches[dst].PIP
				want := hops[netaddr.FlowHash(p.SrcPIP, p.DstPIP, flow^(uint64(sw)*0x9e3779b1))%uint32(len(hops))]
				e.ecmpForward(sw, dst, p)
				var took []int32
				for _, l := range e.swNbr[sw] {
					if l.inFlight() > 0 {
						took = append(took, l.dstSw)
					}
				}
				if len(took) != 1 || took[0] != want {
					t.Fatalf("%d -> %d flow %d: forwarded toward %v, want next hop %d of %v", sw, dst, flow, took, want, hops)
				}
				e.Q.Run(simtime.Never)
			}
		}
	}
	if e.C.Drops == 0 || e.InFlightPackets() != 0 {
		t.Fatalf("packets did not all reach their destination switch: drops %d, in flight %d", e.C.Drops, e.InFlightPackets())
	}
}

// TestLinkBetweenFindsExactlyTheEdges: both directions of every edge
// resolve to a link with those endpoints, and no other pair of nodes
// resolves at all.
func TestLinkBetweenFindsExactlyTheEdges(t *testing.T) {
	e := newBareEngine(t, topology.FT8())
	type pair struct{ from, to topology.NodeRef }
	edges := map[pair]bool{}
	for _, edge := range e.Topo.Edges {
		edges[pair{edge.A, edge.B}], edges[pair{edge.B, edge.A}] = true, true
	}
	// Every node, plus refs just outside both index ranges.
	var nodes []topology.NodeRef
	for i := int32(-1); int(i) <= len(e.Topo.Switches); i++ {
		nodes = append(nodes, topology.SwitchRef(i))
	}
	for i := int32(-1); int(i) <= len(e.Topo.Hosts); i++ {
		nodes = append(nodes, topology.HostRef(i))
	}
	joins := func(l *link, from, to topology.NodeRef) bool {
		switch {
		case l == nil:
			return false
		case from.Kind == topology.KindHost:
			return l == e.hostUp[from.Idx] && l.fromSwitch < 0 && l.dstSw == to.Idx
		case to.Kind == topology.KindHost:
			return l == e.hostDown[to.Idx] && l.fromSwitch == from.Idx && l.dstHost == to.Idx
		}
		return l.fromSwitch == from.Idx && l.dstSw == to.Idx
	}
	found := 0
	for _, from := range nodes {
		for _, to := range nodes {
			l := e.linkBetween(from, to)
			if !edges[pair{from, to}] {
				if l != nil {
					t.Fatalf("linkBetween(%v, %v) found a link between non-adjacent nodes", from, to)
				}
				continue
			}
			if !joins(l, from, to) {
				t.Fatalf("linkBetween(%v, %v) = %+v, want the link with those endpoints", from, to, l)
			}
			found++
		}
	}
	if found != 2*len(e.Topo.Edges) {
		t.Fatalf("resolved %d link directions, want %d", found, 2*len(e.Topo.Edges))
	}
}

// TestSwitchFaultMarksExactlyIncidentLinks: failing a switch blocks both
// directions of each of its fabric links and of each attached host's
// access link — 2 x degree + 2 x hosts directions, no other — and
// recovery unblocks them all.
func TestSwitchFaultMarksExactlyIncidentLinks(t *testing.T) {
	e := newBareEngine(t, topology.FT8())
	incident := make([]map[*link]bool, len(e.Topo.Switches))
	for sw := range incident {
		incident[sw] = map[*link]bool{}
	}
	for _, edge := range e.Topo.Edges {
		ab, ba := e.linkBetween(edge.A, edge.B), e.linkBetween(edge.B, edge.A)
		for _, end := range []topology.NodeRef{edge.A, edge.B} {
			if end.Kind == topology.KindSwitch {
				incident[end.Idx][ab], incident[end.Idx][ba] = true, true
			}
		}
	}
	for sw := range e.Topo.Switches {
		if want := 2*len(e.swNbr[sw]) + 2*len(e.Topo.HostsAtToR(int32(sw))); len(incident[sw]) != want {
			t.Fatalf("switch %d: %d incident link directions in the edge list, want %d", sw, len(incident[sw]), want)
		}
		if err := e.SetSwitchFault(int32(sw), true); err != nil {
			t.Fatal(err)
		}
		e.allLinks(func(l *link) {
			if want := incident[sw][l]; (l.swFaults == 1) != want || l.swFaults > 1 {
				t.Fatalf("switch %d down: link %d->(%d,%d) has swFaults %d, incident: %v", sw, l.fromSwitch, l.dstSw, l.dstHost, l.swFaults, want)
			}
		})
		if err := e.SetSwitchFault(int32(sw), false); err != nil {
			t.Fatal(err)
		}
		e.allLinks(func(l *link) {
			if l.swFaults != 0 {
				t.Fatalf("switch %d recovered: link %d->(%d,%d) still has swFaults %d", sw, l.fromSwitch, l.dstSw, l.dstHost, l.swFaults)
			}
		})
	}
}
