package vnet

import (
	"fmt"

	"switchv2p/internal/netaddr"
)

// Churn operations: tenant arrival and departure at runtime. Scenario
// drivers (internal/scenario) pre-reserve VIPs while planning a long
// horizon, place them when the owning tenant "arrives" mid-run, and
// remove them again when it departs.

// ReserveVIP allocates a VIP from the pool without placing a VM: the
// address exists but resolves nowhere until PlaceVM. Reservations let a
// planner hand out stable addresses for VMs that only materialize later
// in simulated time.
func (n *Net) ReserveVIP() netaddr.VIP {
	return n.issue()
}

// PlaceVM places a reserved VIP on the given host for the given tenant
// (0 = default tenant). It is the runtime half of ReserveVIP; unlike
// AddVM it reports errors instead of panicking because scenario drivers
// call it from scheduled events. An address ReserveVIP never issued is
// rejected: the tables have no entry for it.
func (n *Net) PlaceVM(vip netaddr.VIP, host int32, tenant TenantID) error {
	i, ok := n.slot(vip)
	if !ok {
		return fmt.Errorf("vnet: VIP %v was never issued by this network", vip)
	}
	if n.hostOf[i] != noHost {
		return fmt.Errorf("vnet: VIP %v is already placed", vip)
	}
	if err := n.checkServer(host); err != nil {
		return fmt.Errorf("vnet: cannot place VIP %v: %w", vip, err)
	}
	if tenant > MaxTenantID {
		return fmt.Errorf("vnet: tenant %d exceeds the 24-bit VNI space", tenant)
	}
	n.place(i, vip, host, tenant)
	return nil
}

// RemoveVM deletes the VM from the virtual network: the authoritative
// mapping disappears (gateway lookups for the VIP now fail and the
// packet is dropped, counted in GatewayUnknownVIP), its tenancy record
// is released, and any follow-me rules still pointing at the VM are
// withdrawn. In-network caches are NOT notified — stale entries age out
// or misdeliver exactly as the paper's departure analysis expects.
func (n *Net) RemoveVM(vip netaddr.VIP) error {
	host, ok := n.HostOf(vip)
	if !ok {
		return fmt.Errorf("vnet: remove of unknown VIP %v", vip)
	}
	n.unlist(host, vip)
	i := vip - n.firstVIP
	n.hostOf[i] = noHost
	n.placed--
	if n.tenantOf != nil {
		n.tenantOf[i] = 0
	}
	// Withdraw follow-me rules for the departed VM at every prior host.
	// Indexed host loop: deterministic order, no map iteration.
	for h := int32(0); h < int32(len(n.topo.Hosts)); h++ {
		delete(n.followMe[h], vip)
	}
	n.Version++
	return nil
}
