package simnet

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/topology"
	"switchv2p/internal/vnet"
)

// faultModel is the independent reference for the fault state the
// forwarding path reads: the explicitly downed links (under both
// directions), the failed switches and the outaged gateways, in maps.
type faultModel struct {
	edge, linkDown map[[2]topology.NodeRef]bool
	swDown, gwDown map[int32]bool
}

// setLink records a link fault, which the engine must accept iff a, b are adjacent.
func (m *faultModel) setLink(a, b topology.NodeRef, down bool) bool {
	if !m.edge[[2]topology.NodeRef{a, b}] {
		return false
	}
	m.linkDown[[2]topology.NodeRef{a, b}], m.linkDown[[2]topology.NodeRef{b, a}] = down, down
	return true
}

// setFlag records a switch or gateway fault the engine must accept when ok.
func setFlag(flags map[int32]bool, i int32, ok, down bool) bool {
	if ok {
		flags[i] = down
	}
	return ok
}

// down reports whether the link a -> b must accept nothing.
func (m *faultModel) down(a, b topology.NodeRef) bool {
	failed := func(n topology.NodeRef) bool { return n.Kind == topology.KindSwitch && m.swDown[n.Idx] }
	return m.linkDown[[2]topology.NodeRef{a, b}] || failed(a) || failed(b)
}

// modelLossRates are the SetLinkLoss rates ops draw from, each with
// whether the engine must accept it.
var modelLossRates = [...]struct {
	rate  float64
	valid bool
}{{0, true}, {0.25, true}, {1, true}, {-0.1, false}, {1.5, false}, {math.Inf(1), false}, {math.NaN(), false}}

// runFaultModelOps drives an engine and the model with one op stream and
// compares them after every op. An op is four bytes: the call (bits 0-1:
// link fault, switch fault, gateway fault, loss window; bit 2: down; bits
// 3-7: the loss rate) and three argument selectors. The fabric is small
// enough for a byte to reach everything: 10 switches, 16 servers and 4
// gateways, of which senders use 3.
func runFaultModelOps(t *testing.T, ops []byte) {
	cfg := topology.FT8()
	cfg.Pods, cfg.RacksPerPod, cfg.SpinesPerPod, cfg.Cores = 2, 2, 2, 2
	cfg.GatewayPods, cfg.GatewaysPerPod = []int{0, 1}, 2
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := New(topo, vnet.New(topo), gwScheme{}, Config{ActiveGateways: 3})
	m := faultModel{map[[2]topology.NodeRef]bool{}, map[[2]topology.NodeRef]bool{}, map[int32]bool{}, map[int32]bool{}}
	for _, ed := range topo.Edges {
		m.edge[[2]topology.NodeRef{ed.A, ed.B}], m.edge[[2]topology.NodeRef{ed.B, ed.A}] = true, true
	}
	gws := topo.Gateways() // every gateway host, active or not
	// A selector byte reaches every node and indices outside both ranges.
	ref := func(x byte) topology.NodeRef {
		return topology.NodeRef{Kind: topology.NodeKind(x & 1), Idx: int32(x>>1)%24 - 2}
	}
	for ; len(ops) >= 4; ops = ops[4:] {
		code, a, b, c := ops[0], ops[1], ops[2], ops[3]
		down, rate := code&4 != 0, modelLossRates[int(code>>3)%len(modelLossRates)]
		x, y := ref(b), ref(c) // mostly an edge, in either direction
		if ed := topo.Edges[int(b)%len(topo.Edges)]; a%8 != 7 {
			ends := [2]topology.NodeRef{ed.A, ed.B}
			x, y = ends[c&1], ends[^c&1]
		}
		sw, gw := int32(b%16)-2, int32(b>>1)%24-2
		if b&1 == 0 {
			gw = gws[int(b>>1)%len(gws)]
		}
		var err error
		var want bool
		switch code % 4 {
		case 0:
			err, want = e.SetLinkFault(x, y, down), m.setLink(x, y, down)
		case 1:
			err, want = e.SetSwitchFault(sw, down), setFlag(m.swDown, sw, sw >= 0 && int(sw) < len(topo.Switches), down)
		case 2:
			err, want = e.SetGatewayFault(gw, down), setFlag(m.gwDown, gw, gw >= 0 && int(gw) < len(topo.Hosts) && topo.Hosts[gw].Gateway, down)
		case 3:
			err, want = e.SetLinkLoss(x, y, rate.rate), rate.valid && m.edge[[2]topology.NodeRef{x, y}]
		}
		if (err == nil) != want {
			t.Fatalf("op %v (link %v-%v, switch %d, gateway %d, rate %v): error %v, model accepts: %v", ops[:4], x, y, sw, gw, rate.rate, err, want)
		}
		for _, ed := range topo.Edges {
			for _, d := range [...][2]topology.NodeRef{{ed.A, ed.B}, {ed.B, ed.A}} {
				if got := e.linkBetween(d[0], d[1]).down(); got != m.down(d[0], d[1]) {
					t.Fatalf("after op %v: link %v -> %v down() = %v, model disagrees", ops[:4], d[0], d[1], got)
				}
			}
		}
		for s := range topo.Switches {
			if got := e.SwitchFaulted(int32(s)); got != m.swDown[int32(s)] {
				t.Fatalf("after op %v: SwitchFaulted(%d) = %v, model disagrees", ops[:4], s, got)
			}
		}
		allDown := !slices.ContainsFunc(e.Gateways(), func(g int32) bool { return !m.gwDown[g] })
		for flow := uint64(0); flow < 16; flow++ {
			h, _ := topo.HostByPIP(e.GatewayFor(netaddr.PIP(flow+1), flow))
			if !slices.Contains(e.Gateways(), h) || m.gwDown[h] && !allDown {
				t.Fatalf("after op %v: GatewayFor(flow %d) = host %d; active %v, model outages %v", ops[:4], flow, h, e.Gateways(), m.gwDown)
			}
		}
	}
}

// TestFaultStateMatchesModel replays 40 seeded random op streams.
func TestFaultStateMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ops := make([]byte, 4*400)
		rand.New(rand.NewSource(seed)).Read(ops)
		runFaultModelOps(t, ops)
	}
}

// FuzzFaultStateModel lets the fuzzer search for a Set*Fault / SetLinkLoss
// sequence on which the engine's fault state and the model disagree. Seed
// corpus: f.Add below and testdata/fuzz/FuzzFaultStateModel.
func FuzzFaultStateModel(f *testing.F) {
	f.Add([]byte{5, 0, 5, 0, 4, 0, 0, 0, 11, 0, 0, 0, 1, 0, 5, 0, 0, 0, 0, 0}) // switch 3 and edge 0 down, loss window, both up
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*512 {
			ops = ops[:4*512]
		}
		runFaultModelOps(t, ops)
	})
}
