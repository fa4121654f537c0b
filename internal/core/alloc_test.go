package core

import (
	"testing"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

func ft8(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.New(topology.FT8())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func allocTotal(topo *topology.Topology, f func(topology.Switch) int) int {
	total := 0
	for _, sw := range topo.Switches {
		total += f(sw)
	}
	return total
}

func TestAllocToROnly(t *testing.T) {
	topo := ft8(t)
	f := AllocToROnly(topo, 3200)
	for _, sw := range topo.Switches {
		want := 0
		if sw.Role.IsToR() {
			want = 100
		}
		if got := f(sw); got != want {
			t.Fatalf("%v share = %d, want %d", sw.Role, got, want)
		}
	}
	if got := allocTotal(topo, f); got != 3200 {
		t.Fatalf("total = %d, want 3200", got)
	}
}

// TestToROnlyAllocationBehavior checks the §4 observation: a ToR-only
// cache still reduces FCT (hits at sender ToRs) but does worse on the
// shared higher layers.
func TestToROnlyAllocationBehavior(t *testing.T) {
	opts := DefaultOptions(0)
	opts.PLearn = 1.0
	topo := ft8(t)
	opts.SizeFor = AllocToROnly(topo, 8000)
	w := newWorld(t, opts)
	w.send(1, 0, w.vips[0], w.vips[9], true)
	w.send(1, 1, w.vips[0], w.vips[9], false)
	if w.scheme.S.HitsByLayer[LayerSpine] != 0 || w.scheme.S.HitsByLayer[LayerCore] != 0 {
		t.Fatalf("ToR-only allocation produced non-ToR hits: %+v", w.scheme.S.HitsByLayer)
	}
}

// TestGatewayMigrationRoles exercises §4 "Gateway migration": re-roling
// a standard ToR into a gateway ToR makes it start generating learning
// packets, while the demoted one stops.
func TestGatewayMigrationRoles(t *testing.T) {
	opts := DefaultOptions(1024)
	opts.PLearn = 1.0
	w := newWorld(t, opts)

	// Promote the destination's ToR (a regular ToR) to gateway-ToR role
	// and demote the pod-0 gateway ToR, as a gateway migration would.
	src, dst := w.vips[0], w.vips[9]
	dstHost := w.hostOf(dst)
	newGwToR := w.topo.Hosts[dstHost].ToR
	if w.scheme.Role(newGwToR) != topology.RoleToR {
		t.Fatalf("precondition: dst ToR role = %v", w.scheme.Role(newGwToR))
	}
	var oldGwToR int32 = -1
	for _, sw := range w.topo.Switches {
		if sw.Role == topology.RoleGatewayToR && sw.Pod == 0 {
			oldGwToR = sw.Idx
			break
		}
	}
	w.scheme.SetRole(oldGwToR, topology.RoleToR)
	w.scheme.SetRole(newGwToR, topology.RoleGatewayToR)
	if w.scheme.Role(oldGwToR) != topology.RoleToR || w.scheme.Role(newGwToR) != topology.RoleGatewayToR {
		t.Fatal("SetRole did not take effect")
	}

	// A resolved delivery to dst now passes the NEW gateway ToR, which
	// destination-learns (its new role) and generates a learning packet
	// toward the sender (P_learn = 1). Under its old ToR role it would
	// only have source-learned the sender's mapping.
	pip, _ := w.net.Lookup(dst)
	p := packet.NewData(1, 0, 500, src, dst, 0)
	p.Resolved = true
	p.DstPIP = pip
	w.e.HostSend(w.hostOf(src), p)
	w.e.Run(simtime.Never)

	if got, ok := w.scheme.Cache(newGwToR).Peek(dst); !ok || got != pip {
		t.Fatalf("re-roled ToR did not destination-learn: %v %v", got, ok)
	}
	if w.scheme.S.LearningSent == 0 {
		t.Fatal("re-roled gateway ToR generated no learning packet")
	}
	// The sender's ToR received that learning packet.
	srcToR := w.topo.Hosts[w.hostOf(src)].ToR
	if got, ok := w.scheme.Cache(srcToR).Peek(dst); !ok || got != pip {
		t.Fatalf("sender ToR did not receive the learning packet: %v %v", got, ok)
	}
	_ = netaddr.Mapping{}
}
