package vnet

import (
	"math/rand"
	"reflect"
	"testing"

	"switchv2p/internal/topology"
)

// The snapshot accessors iterate internal maps; they must return the
// same slice contents on every call (and therefore across runs), never
// leak Go's randomized map order.

func TestAllMappingsStableOrder(t *testing.T) {
	n := newNet(t)
	rng := rand.New(rand.NewSource(7))
	n.PlaceUniform(64, rng)
	first := n.AllMappings()
	for i := 0; i < 10; i++ {
		if got := n.AllMappings(); !reflect.DeepEqual(got, first) {
			t.Fatalf("AllMappings changed between calls:\n%v\n%v", first, got)
		}
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].VIP >= first[i].VIP {
			t.Fatalf("AllMappings not in VIP order at %d: %v >= %v", i, first[i-1].VIP, first[i].VIP)
		}
	}
}

func TestTenantVMsStableOrder(t *testing.T) {
	n := newNet(t)
	servers := n.Topology().Servers()
	for i := 0; i < 48; i++ {
		if _, err := n.AddVMForTenant(servers[i%len(servers)], TenantID(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	for tenant := TenantID(0); tenant < 3; tenant++ {
		first := n.TenantVMs(tenant)
		if len(first) == 0 {
			t.Fatalf("tenant %d has no VMs", tenant)
		}
		for i := 0; i < 10; i++ {
			if got := n.TenantVMs(tenant); !reflect.DeepEqual(got, first) {
				t.Fatalf("TenantVMs(%d) changed between calls:\n%v\n%v", tenant, first, got)
			}
		}
		for i := 1; i < len(first); i++ {
			if first[i-1] >= first[i] {
				t.Fatalf("TenantVMs(%d) not in VIP order at %d", tenant, i)
			}
		}
	}
}

// TestSnapshotsAtPaperScale takes both snapshots at the paper's FT16-400K
// scale. They are one ordered pass over the address table: milliseconds.
// An implementation that orders the addresses with a quadratic sort (the
// hand-rolled insertion sorts this package used to have took 3.3 s at
// 80 000 VMs) does not finish this test within a minute.
func TestSnapshotsAtPaperScale(t *testing.T) {
	const vms = 400000
	topo, err := topology.New(topology.FT16())
	if err != nil {
		t.Fatal(err)
	}
	n := New(topo)
	vips := n.PlaceUniform(vms, rand.New(rand.NewSource(1)))
	ms := n.AllMappings()
	if len(ms) != vms {
		t.Fatalf("AllMappings has %d entries, want %d", len(ms), vms)
	}
	for i, m := range ms {
		if want, _ := n.Lookup(vips[i]); m.VIP != vips[i] || m.PIP != want {
			t.Fatalf("AllMappings[%d] = %v, want %v->%v (creation order is VIP order)", i, m, vips[i], want)
		}
	}
	if got := n.TenantVMs(0); !reflect.DeepEqual(got, vips) {
		t.Fatalf("TenantVMs(0) is not the %d VMs in creation order (%d entries)", vms, len(got))
	}
	if got := n.TenantVMs(1); len(got) != 0 {
		t.Fatalf("TenantVMs(1) = %d entries in a single-tenant network", len(got))
	}
}
