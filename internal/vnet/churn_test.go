package vnet

import (
	"math"
	"strings"
	"testing"

	"switchv2p/internal/netaddr"
)

func TestReserveThenPlace(t *testing.T) {
	n := newNet(t)
	servers := n.Topology().Servers()
	vip := n.ReserveVIP()
	if _, ok := n.Lookup(vip); ok {
		t.Fatal("reserved VIP must not resolve before placement")
	}
	v0 := n.Version
	if err := n.PlaceVM(vip, servers[3], 7); err != nil {
		t.Fatal(err)
	}
	if pip, ok := n.Lookup(vip); !ok || pip != n.Topology().Hosts[servers[3]].PIP {
		t.Fatalf("Lookup after placement = %v,%v", pip, ok)
	}
	if got := n.TenantOf(vip); got != 7 {
		t.Fatalf("TenantOf = %d, want 7", got)
	}
	if !n.HostHasVM(servers[3], vip) {
		t.Fatal("HostHasVM false after placement")
	}
	if n.Version != v0+1 {
		t.Fatalf("Version = %d, want %d", n.Version, v0+1)
	}
	// Reservations must not collide with later AddVM allocations.
	other := n.AddVM(servers[0])
	if other == vip {
		t.Fatal("AddVM reissued a reserved VIP")
	}
}

func TestPlaceVMErrors(t *testing.T) {
	n := newNet(t)
	servers := n.Topology().Servers()
	vip := n.AddVM(servers[0])
	if err := n.PlaceVM(vip, servers[1], 0); err == nil {
		t.Error("placing an already-placed VIP must fail")
	}
	gw := n.Topology().Gateways()[0]
	if err := n.PlaceVM(n.ReserveVIP(), gw, 0); err == nil {
		t.Error("placing on a gateway host must fail")
	}
	if err := n.PlaceVM(n.ReserveVIP(), servers[0], MaxTenantID+1); err == nil {
		t.Error("out-of-range tenant must fail")
	}
}

func TestRemoveVM(t *testing.T) {
	n := newNet(t)
	servers := n.Topology().Servers()
	vip, err := n.AddVMForTenant(servers[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	// Migrate first so a follow-me rule exists at the old host.
	if err := n.Migrate(vip, servers[1]); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.FollowMe(servers[0], vip); !ok {
		t.Fatal("expected follow-me rule at old host")
	}
	v0 := n.Version
	if err := n.RemoveVM(vip); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Lookup(vip); ok {
		t.Error("removed VIP still resolves")
	}
	if n.HostHasVM(servers[1], vip) {
		t.Error("removed VM still listed at its host")
	}
	if got := n.TenantOf(vip); got != 0 {
		t.Errorf("TenantOf after removal = %d, want 0", got)
	}
	if _, ok := n.FollowMe(servers[0], vip); ok {
		t.Error("follow-me rule survived removal")
	}
	if n.Version != v0+1 {
		t.Errorf("Version = %d, want %d", n.Version, v0+1)
	}
	if err := n.RemoveVM(vip); err == nil {
		t.Error("removing an unknown VIP must fail")
	}
	if n.NumVMs() != 0 {
		t.Errorf("NumVMs = %d, want 0", n.NumVMs())
	}
}

// TestPlaceAndMigrateRejectWhatTheyCannotRepresent: scenario drivers call
// PlaceVM and Migrate from scheduled events with arguments read from
// plans and workload files, so a host outside the topology, or an address
// this network never issued, is an error naming the argument — not an
// index panic, and not a mapping for an address nobody owns.
func TestPlaceAndMigrateRejectWhatTheyCannotRepresent(t *testing.T) {
	n := newNet(t)
	servers := n.Topology().Servers()
	hosts := int32(len(n.Topology().Hosts))
	placed := n.AddVM(servers[0])
	reserved := n.ReserveVIP()
	for _, tc := range []struct {
		name string
		call func() error
		want string // must appear in the error
	}{
		{"place, host = len(Hosts)", func() error { return n.PlaceVM(reserved, hosts, 0) }, "host 168 out of range"},
		{"place, host -1", func() error { return n.PlaceVM(reserved, -1, 0) }, "host -1 out of range"},
		{"place, host MaxInt32", func() error { return n.PlaceVM(reserved, math.MaxInt32, 0) }, "out of range"},
		{"place, VIP 0", func() error { return n.PlaceVM(0, servers[1], 0) }, "0.0.0.0 was never issued"},
		{"place, VIP below the first issued", func() error { return n.PlaceVM(placed-1, servers[1], 0) }, "172.0.0.0 was never issued"},
		{"place, VIP above the last issued", func() error { return n.PlaceVM(reserved+1, servers[1], 0) }, "172.0.0.3 was never issued"},
		{"place, VIP all ones", func() error { return n.PlaceVM(^netaddr.VIP(0), servers[1], 0) }, "255.255.255.255 was never issued"},
		{"place, VIP already placed", func() error { return n.PlaceVM(placed, servers[1], 0) }, "172.0.0.1 is already placed"},
		{"migrate, host = len(Hosts)", func() error { return n.Migrate(placed, hosts) }, "host 168 out of range"},
		{"migrate, host -1", func() error { return n.Migrate(placed, -1) }, "host -1 out of range"},
		{"migrate, host MinInt32", func() error { return n.Migrate(placed, math.MinInt32) }, "out of range"},
		{"migrate, reserved but unplaced VIP", func() error { return n.Migrate(reserved, servers[1]) }, "unknown VIP 172.0.0.2"},
		{"remove, reserved but unplaced VIP", func() error { return n.RemoveVM(reserved) }, "unknown VIP 172.0.0.2"},
	} {
		v0 := n.Version
		err := tc.call()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
		if n.Version != v0 || n.NumVMs() != 1 {
			t.Errorf("%s: a rejected call changed state (Version %d -> %d, NumVMs %d)", tc.name, v0, n.Version, n.NumVMs())
		}
	}
	if err := n.PlaceVM(reserved, servers[1], 0); err != nil {
		t.Fatalf("the reserved VIP must still be placeable after the rejections: %v", err)
	}
}

// TestForeignAddressesAreUnknown: workload files carry arbitrary VIPs, so
// every read accessor answers "unknown" for an address outside the issued
// range, before and after the first address is issued.
func TestForeignAddressesAreUnknown(t *testing.T) {
	n := newNet(t)
	check := func(when string, vips ...netaddr.VIP) {
		t.Helper()
		for _, v := range vips {
			if pip, ok := n.Lookup(v); ok || pip != netaddr.NoPIP {
				t.Errorf("%s: Lookup(%v) = %v,%v", when, v, pip, ok)
			}
			if h, ok := n.HostOf(v); ok || h != 0 {
				t.Errorf("%s: HostOf(%v) = %d,%v", when, v, h, ok)
			}
			if n.HostHasVM(0, v) || n.HostHasVM(-1, v) {
				t.Errorf("%s: HostHasVM(_, %v) is true", when, v)
			}
			if got := n.TenantOf(v); got != 0 {
				t.Errorf("%s: TenantOf(%v) = %d", when, v, got)
			}
		}
	}
	check("empty network", 0, 1, ^netaddr.VIP(0))
	server := n.Topology().Servers()[0]
	first, err := n.AddVMForTenant(server, 9)
	if err != nil {
		t.Fatal(err)
	}
	last := n.AddVM(server)
	check("two VMs", 0, first-1, last+1, ^netaddr.VIP(0))
}
