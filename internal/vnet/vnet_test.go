package vnet

import (
	"math/rand"
	"slices"
	"testing"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/topology"
)

func newNet(t testing.TB) *Net {
	t.Helper()
	topo, err := topology.New(topology.FT8())
	if err != nil {
		t.Fatal(err)
	}
	return New(topo)
}

func TestAddVMAndLookup(t *testing.T) {
	n := newNet(t)
	servers := n.Topology().Servers()
	vip := n.AddVM(servers[0])
	pip, ok := n.Lookup(vip)
	if !ok || pip != n.Topology().Hosts[servers[0]].PIP {
		t.Fatalf("Lookup(%v) = %v,%v", vip, pip, ok)
	}
	if h, ok := n.HostOf(vip); !ok || h != servers[0] {
		t.Fatalf("HostOf = %d,%v", h, ok)
	}
	if !n.HostHasVM(servers[0], vip) {
		t.Fatal("HostHasVM false for placed VM")
	}
	if n.HostHasVM(servers[1], vip) {
		t.Fatal("HostHasVM true on wrong host")
	}
}

func TestLookupUnknown(t *testing.T) {
	n := newNet(t)
	if _, ok := n.Lookup(netaddr.VIP(12345)); ok {
		t.Fatal("Lookup of unknown VIP succeeded")
	}
	if _, ok := n.HostOf(netaddr.VIP(12345)); ok {
		t.Fatal("HostOf of unknown VIP succeeded")
	}
}

func TestAddVMOnGatewayPanics(t *testing.T) {
	n := newNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic placing VM on gateway")
		}
	}()
	n.AddVM(n.Topology().Gateways()[0])
}

func TestPlaceUniform(t *testing.T) {
	n := newNet(t)
	rng := rand.New(rand.NewSource(42))
	vips := n.PlaceUniform(10240, rng)
	if len(vips) != 10240 || n.NumVMs() != 10240 {
		t.Fatalf("placed %d/%d VMs", len(vips), n.NumVMs())
	}
	// All VIPs unique.
	seen := make(map[netaddr.VIP]bool)
	for _, v := range vips {
		if seen[v] {
			t.Fatalf("duplicate VIP %v", v)
		}
		seen[v] = true
	}
	// No VM on a gateway; counts roughly uniform (128 servers, 80 each).
	total := 0
	for _, h := range n.Topology().Hosts {
		vms := n.VMsAt(h.Idx)
		total += len(vms)
		if h.Gateway && len(vms) > 0 {
			t.Fatalf("gateway host %d has VMs", h.Idx)
		}
		if !h.Gateway && (len(vms) < 30 || len(vms) > 150) {
			t.Fatalf("server %d has %d VMs, badly unbalanced", h.Idx, len(vms))
		}
	}
	if total != 10240 {
		t.Fatalf("VMsAt totals %d", total)
	}
}

// TestPlaceUniformIsOneAddVMPerDraw: PlaceUniform carves the VM lists from
// one array; it must leave what one AddVM per draw leaves — same VIPs,
// same hosts, same order in every list — also when lists already exist,
// and later migrations must not write into a neighbouring host's list.
func TestPlaceUniformIsOneAddVMPerDraw(t *testing.T) {
	got, want := newNet(t), newNet(t)
	gotRNG, wantRNG := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	servers := want.Topology().Servers()
	place := func(count int) {
		vips := got.PlaceUniform(count, gotRNG)
		for i := range count {
			if v := want.AddVM(servers[wantRNG.Intn(len(servers))]); v != vips[i] {
				t.Fatalf("VM %d: PlaceUniform gave %v, AddVM %v", i, vips[i], v)
			}
		}
	}
	place(300)
	got.AddVM(servers[3])
	want.AddVM(servers[3])
	place(500)
	for i, vip := range got.AllMappings()[:200] {
		to := servers[(i*7)%len(servers)]
		if err, err2 := got.Migrate(vip.VIP, to), want.Migrate(vip.VIP, to); (err == nil) != (err2 == nil) {
			t.Fatalf("Migrate(%v, %d): %v against %v", vip.VIP, to, err, err2)
		}
	}
	for _, h := range got.Topology().Hosts {
		if g, w := got.VMsAt(h.Idx), want.VMsAt(h.Idx); !slices.Equal(g, w) {
			t.Fatalf("host %d holds %v, one AddVM per draw gives %v", h.Idx, g, w)
		}
	}
}

func TestPlaceRoundRobin(t *testing.T) {
	n := newNet(t)
	n.PlaceRoundRobin(256) // 2 per server exactly
	for _, s := range n.Topology().Servers() {
		if got := len(n.VMsAt(s)); got != 2 {
			t.Fatalf("server %d has %d VMs, want 2", s, got)
		}
	}
}

func TestMigrate(t *testing.T) {
	n := newNet(t)
	servers := n.Topology().Servers()
	vip := n.AddVM(servers[0])
	v0 := n.Version
	if err := n.Migrate(vip, servers[5]); err != nil {
		t.Fatal(err)
	}
	if n.Version <= v0 {
		t.Fatal("Version not bumped by migration")
	}
	// Authoritative state updated.
	if pip, _ := n.Lookup(vip); pip != n.Topology().Hosts[servers[5]].PIP {
		t.Fatalf("Lookup after migrate = %v", pip)
	}
	if n.HostHasVM(servers[0], vip) || !n.HostHasVM(servers[5], vip) {
		t.Fatal("HostHasVM not updated by migration")
	}
	if len(n.VMsAt(servers[0])) != 0 || len(n.VMsAt(servers[5])) != 1 {
		t.Fatal("VMsAt not updated by migration")
	}
	// Follow-me installed at the old host only.
	if p, ok := n.FollowMe(servers[0], vip); !ok || p != n.Topology().Hosts[servers[5]].PIP {
		t.Fatalf("FollowMe = %v,%v", p, ok)
	}
	if _, ok := n.FollowMe(servers[5], vip); ok {
		t.Fatal("FollowMe present at new host")
	}
}

func TestMigrateErrors(t *testing.T) {
	n := newNet(t)
	servers := n.Topology().Servers()
	if err := n.Migrate(netaddr.VIP(999), servers[0]); err == nil {
		t.Fatal("migrating unknown VIP should fail")
	}
	vip := n.AddVM(servers[0])
	if err := n.Migrate(vip, servers[0]); err == nil {
		t.Fatal("migrating to same host should fail")
	}
	if err := n.Migrate(vip, n.Topology().Gateways()[0]); err == nil {
		t.Fatal("migrating to gateway should fail")
	}
}

func TestAllMappings(t *testing.T) {
	n := newNet(t)
	rng := rand.New(rand.NewSource(1))
	vips := n.PlaceUniform(100, rng)
	ms := n.AllMappings()
	if len(ms) != 100 {
		t.Fatalf("AllMappings = %d entries, want 100", len(ms))
	}
	byVIP := make(map[netaddr.VIP]netaddr.PIP, len(ms))
	for _, m := range ms {
		if !m.IsValid() {
			t.Fatalf("invalid mapping %v", m)
		}
		byVIP[m.VIP] = m.PIP
	}
	for _, v := range vips {
		want, _ := n.Lookup(v)
		if byVIP[v] != want {
			t.Fatalf("AllMappings[%v] = %v, want %v", v, byVIP[v], want)
		}
	}
}

// BenchmarkLookup400k is the gateway's authoritative translation at the
// paper's FT16-400K scale: a random Lookup over 400 000 placed VMs (the
// figure includes the PRNG draw).
func BenchmarkLookup400k(b *testing.B) {
	topo, err := topology.New(topology.FT16())
	if err != nil {
		b.Fatal(err)
	}
	n := New(topo)
	rng := rand.New(rand.NewSource(1))
	first := n.PlaceUniform(400000, rng)[0] // addresses are sequential from here
	var sink netaddr.PIP
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pip, _ := n.Lookup(first + netaddr.VIP(rng.Intn(400000)))
		sink += pip
	}
	lookupSink = sink
}

var lookupSink netaddr.PIP
