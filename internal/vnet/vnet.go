// Package vnet holds the virtual network state: which VM (identified by
// its virtual IP) currently lives on which physical host, the
// authoritative V2P mapping database that translation gateways consult,
// and the follow-me forwarding rules that cover VM migrations.
package vnet

import (
	"fmt"
	"math/rand"
	"slices"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/topology"
)

// Net is the virtual network control-plane state. It is written by a
// single party (the "network administrator": placement and migration) and
// read by gateways and hypervisors, mirroring the single-writer
// multi-reader structure the paper identifies.
type Net struct {
	topo *topology.Topology

	// VIPs come from one sequential allocator, so vip - firstVIP is a dense
	// index (see slot): hostOf has one entry per address issued so far, the
	// VM's current host index or noHost while the address is only reserved
	// or its VM has been removed.
	vipPool  netaddr.VIPAllocator
	firstVIP netaddr.VIP
	hostOf   []int32
	placed   int             // entries of hostOf that name a host
	vmsAt    [][]netaddr.VIP // host index -> VMs placed there

	// followMe records, per host, the new physical location of VMs that
	// recently migrated away (Andromeda's follow-me rule): the old host
	// forwards misdelivered packets there in host-driven designs.
	followMe map[int32]map[netaddr.VIP]netaddr.PIP

	// tenantOf records VPC membership (§4 "Multitenancy support"), indexed
	// like hostOf. It stays nil until the first VM of a non-default tenant
	// appears: single-tenant runs never pay for it.
	tenantOf []TenantID

	// Version counts mapping updates; useful for cache-staleness tests.
	Version uint64
}

const noHost int32 = -1

// New creates an empty virtual network over the given topology.
func New(topo *topology.Topology) *Net {
	return &Net{
		topo:     topo,
		vmsAt:    make([][]netaddr.VIP, len(topo.Hosts)),
		followMe: make(map[int32]map[netaddr.VIP]netaddr.PIP),
	}
}

// Topology returns the underlying physical topology.
func (n *Net) Topology() *topology.Topology { return n.topo }

// issue draws the next VIP from the pool and gives it its (unplaced)
// table entry.
func (n *Net) issue() netaddr.VIP {
	vip := n.vipPool.Next()
	if len(n.hostOf) == 0 {
		n.firstVIP = vip
	}
	n.hostOf = append(n.hostOf, noHost)
	if n.tenantOf != nil {
		n.tenantOf = append(n.tenantOf, 0)
	}
	return vip
}

// slot returns vip's index into hostOf / tenantOf; ok is false for an
// address this Net never issued (one below firstVIP wraps to a huge index).
func (n *Net) slot(vip netaddr.VIP) (i uint32, ok bool) {
	i = uint32(vip - n.firstVIP)
	return i, i < uint32(len(n.hostOf))
}

// place puts vip, whose unplaced table entry is i, on host for tenant.
// Callers have validated all three.
func (n *Net) place(i uint32, vip netaddr.VIP, host int32, tenant TenantID) {
	n.hostOf[i] = host
	n.placed++
	n.vmsAt[host] = append(n.vmsAt[host], vip)
	if tenant != 0 {
		if n.tenantOf == nil {
			n.tenantOf = make([]TenantID, len(n.hostOf), cap(n.hostOf))
		}
		n.tenantOf[i] = tenant
	}
	n.Version++
}

// unlist removes vip from host's VM list (swap with the last entry).
func (n *Net) unlist(host int32, vip netaddr.VIP) {
	vms := n.vmsAt[host]
	for i, v := range vms {
		if v == vip {
			vms[i] = vms[len(vms)-1]
			n.vmsAt[host] = vms[:len(vms)-1]
			return
		}
	}
}

// checkServer rejects a host index that VMs cannot be placed on.
func (n *Net) checkServer(host int32) error {
	if host < 0 || int(host) >= len(n.topo.Hosts) {
		return fmt.Errorf("host %d out of range [0,%d)", host, len(n.topo.Hosts))
	}
	if n.topo.Hosts[host].Gateway {
		return fmt.Errorf("host %d is a translation gateway", host)
	}
	return nil
}

// AddVM places a brand-new VM on the given host and returns its VIP.
func (n *Net) AddVM(host int32) netaddr.VIP { return n.addVM(host, 0) }

func (n *Net) addVM(host int32, tenant TenantID) netaddr.VIP {
	if n.topo.Hosts[host].Gateway {
		panic(fmt.Sprintf("vnet: cannot place VM on gateway host %d", host))
	}
	vip := n.issue()
	n.place(uint32(len(n.hostOf)-1), vip, host, tenant)
	return vip
}

// PlaceUniform creates count VMs spread uniformly at random over the
// non-gateway servers, returning their VIPs in creation order.
func (n *Net) PlaceUniform(count int, rng *rand.Rand) []netaddr.VIP {
	servers := n.topo.Servers()
	// Draw every host first, then give each drawn host's VM list its final
	// capacity, carved from one array, so that placing allocates nothing
	// per host. The draws, the VIPs and each list's order are those of one
	// AddVM per draw.
	hosts := make([]int32, count)
	grow := make([]int32, len(n.vmsAt))
	for i := range hosts {
		hosts[i] = servers[rng.Intn(len(servers))]
		grow[hosts[i]]++
	}
	size := 0
	for h, k := range grow {
		if k > 0 {
			size += len(n.vmsAt[h]) + int(k)
		}
	}
	lists := make([]netaddr.VIP, 0, size)
	for h, k := range grow {
		if k > 0 {
			start := len(lists)
			lists = append(lists, n.vmsAt[h]...)
			n.vmsAt[h] = lists[start : len(lists) : len(lists)+int(k)]
			lists = lists[:len(lists)+int(k)]
		}
	}
	n.hostOf = slices.Grow(n.hostOf, count)
	vips := make([]netaddr.VIP, count)
	for i, h := range hosts {
		vips[i] = n.AddVM(h)
	}
	return vips
}

// PlaceRoundRobin creates count VMs spread evenly (deterministically)
// over the servers: VM i goes to server i mod #servers.
func (n *Net) PlaceRoundRobin(count int) []netaddr.VIP {
	servers := n.topo.Servers()
	n.hostOf = slices.Grow(n.hostOf, count)
	vips := make([]netaddr.VIP, count)
	for i := range vips {
		vips[i] = n.AddVM(servers[i%len(servers)])
	}
	return vips
}

// Lookup is the authoritative translation gateways use: the current
// physical address of the VM. ok is false for unknown VIPs.
func (n *Net) Lookup(vip netaddr.VIP) (netaddr.PIP, bool) {
	h, ok := n.HostOf(vip)
	if !ok {
		return netaddr.NoPIP, false
	}
	return n.topo.Hosts[h].PIP, true
}

// HostOf returns the host index currently running the VM.
func (n *Net) HostOf(vip netaddr.VIP) (int32, bool) {
	if i, ok := n.slot(vip); ok && n.hostOf[i] != noHost {
		return n.hostOf[i], true
	}
	return 0, false
}

// HostHasVM reports whether the VM currently runs on the given host; this
// is the hypervisor's local-delivery check.
func (n *Net) HostHasVM(host int32, vip netaddr.VIP) bool {
	h, ok := n.HostOf(vip)
	return ok && h == host
}

// VMsAt returns the VMs currently placed on a host (none for a host index
// outside the topology).
func (n *Net) VMsAt(host int32) []netaddr.VIP {
	if host < 0 || int(host) >= len(n.vmsAt) {
		return nil
	}
	return n.vmsAt[host]
}

// NumVMs returns the number of placed VMs.
func (n *Net) NumVMs() int { return n.placed }

// Migrate moves the VM to a new host: the authoritative database is
// updated immediately (gateways see the new location) and a follow-me
// rule is installed at the old host so that host-driven designs can
// re-forward misdelivered packets.
func (n *Net) Migrate(vip netaddr.VIP, newHost int32) error {
	old, ok := n.HostOf(vip)
	if !ok {
		return fmt.Errorf("vnet: migrate of unknown VIP %v", vip)
	}
	if err := n.checkServer(newHost); err != nil {
		return fmt.Errorf("vnet: cannot migrate VIP %v: %w", vip, err)
	}
	if old == newHost {
		return fmt.Errorf("vnet: VIP %v already on host %d", vip, newHost)
	}
	n.unlist(old, vip)
	n.hostOf[vip-n.firstVIP] = newHost
	n.vmsAt[newHost] = append(n.vmsAt[newHost], vip)
	fm := n.followMe[old]
	if fm == nil {
		fm = make(map[netaddr.VIP]netaddr.PIP)
		n.followMe[old] = fm
	}
	fm[vip] = n.topo.Hosts[newHost].PIP
	n.Version++
	return nil
}

// FollowMe returns the follow-me target the old host knows for a departed
// VM, if any.
func (n *Net) FollowMe(oldHost int32, vip netaddr.VIP) (netaddr.PIP, bool) {
	p, ok := n.followMe[oldHost][vip]
	return p, ok
}

// AllMappings returns a snapshot of every VIP->PIP mapping in VIP
// order; Direct-style host-driven schemes preprogram hosts from this.
func (n *Net) AllMappings() []netaddr.Mapping {
	out := make([]netaddr.Mapping, 0, n.placed)
	for i, h := range n.hostOf {
		if h != noHost {
			out = append(out, netaddr.Mapping{VIP: n.firstVIP + netaddr.VIP(i), PIP: n.topo.Hosts[h].PIP})
		}
	}
	return out
}
