package core

import (
	"testing"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/vnet"
)

// tenantWorld builds a two-tenant deployment: tenants A (id 1) and B
// (id 2), each with VMs spread over the servers.
type tenantWorld struct {
	topo   *topology.Topology
	net    *vnet.Net
	scheme *Scheme
	e      *simnet.Engine
	a, b   []netaddr.VIP
}

func newTenantWorld(t testing.TB, opts Options) *tenantWorld {
	t.Helper()
	topo, err := topology.New(topology.FT8())
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.New(topo)
	servers := topo.Servers()
	w := &tenantWorld{topo: topo, net: n}
	for i := 0; i < 64; i++ {
		va, err := n.AddVMForTenant(servers[i%len(servers)], 1)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := n.AddVMForTenant(servers[(i+7)%len(servers)], 2)
		if err != nil {
			t.Fatal(err)
		}
		w.a = append(w.a, va)
		w.b = append(w.b, vb)
	}
	w.scheme = New(topo, opts)
	w.e = simnet.New(topo, n, w.scheme, simnet.DefaultConfig())
	return w
}

func (w *tenantWorld) send(flow uint64, src, dst netaddr.VIP) {
	host, _ := w.net.HostOf(src)
	w.e.HostSend(host, packet.NewData(flow, 0, 500, src, dst, 0))
	w.e.Run(simtime.Never)
}

func tenancyOpts(shares map[vnet.TenantID]float64) Options {
	opts := DefaultOptions(256)
	opts.LearningPackets = false
	opts.Tenancy = &Tenancy{Shares: shares}
	return opts
}

func TestTenantIsolation(t *testing.T) {
	w := newTenantWorld(t, tenancyOpts(map[vnet.TenantID]float64{1: 0.5, 2: 0.5}))

	// Tenant A's flow warms A's partitions.
	w.send(1, w.a[0], w.a[9])
	gwAfterA := w.e.C.GatewayPackets
	w.send(2, w.a[0], w.a[9])
	if w.e.C.GatewayPackets != gwAfterA {
		t.Fatalf("tenant A repeat flow used the gateway")
	}

	// Tenant B sending to ITS OWN VM must not see tenant A's entries —
	// and A's warm entries must not be visible to B's lookups anywhere.
	hostB, _ := w.net.HostOf(w.b[0])
	pB := packet.NewData(3, 0, 500, w.b[0], w.b[9], 0)
	w.e.HostSend(hostB, pB)
	w.e.Run(simtime.Never)
	if w.e.C.GatewayPackets != gwAfterA+1 {
		t.Fatalf("tenant B first flow did not go to the gateway (gw=%d)", w.e.C.GatewayPackets)
	}

	// Partitions are disjoint objects: A's mapping never appears in B's.
	pipA, _ := w.net.Lookup(w.a[9])
	for _, sw := range w.topo.Switches {
		if pip, ok := w.scheme.TenantCache(sw.Idx, 2).Peek(w.a[9]); ok && pip == pipA {
			t.Fatalf("tenant A mapping leaked into tenant B partition on switch %d", sw.Idx)
		}
	}
}

func TestTenantDisabledPolicy(t *testing.T) {
	opts := tenancyOpts(map[vnet.TenantID]float64{1: 0.5, 2: 0.5})
	opts.Tenancy.Enabled = func(id vnet.TenantID) bool { return id == 1 }
	w := newTenantWorld(t, opts)

	// Tenant 1 benefits from caching.
	w.send(1, w.a[0], w.a[9])
	gw := w.e.C.GatewayPackets
	w.send(2, w.a[0], w.a[9])
	if w.e.C.GatewayPackets != gw {
		t.Fatal("enabled tenant missed in-network cache")
	}
	// Tenant 2 always goes through gateways, no matter how often.
	for i := 0; i < 3; i++ {
		w.send(uint64(10+i), w.b[0], w.b[9])
	}
	if got := w.e.C.GatewayPackets - gw; got != 3 {
		t.Fatalf("disabled tenant gateway packets = %d, want 3", got)
	}
}

func TestTenantWithoutShareNotCached(t *testing.T) {
	// Only tenant 1 has a partition; tenant 2 has no share at all.
	w := newTenantWorld(t, tenancyOpts(map[vnet.TenantID]float64{1: 1.0}))
	w.send(1, w.b[0], w.b[9])
	gw := w.e.C.GatewayPackets
	w.send(2, w.b[0], w.b[9])
	if w.e.C.GatewayPackets != gw+1 {
		t.Fatal("share-less tenant hit a cache")
	}
}

func TestTenantPartitionSizes(t *testing.T) {
	opts := tenancyOpts(map[vnet.TenantID]float64{1: 0.75, 2: 0.25})
	w := newTenantWorld(t, opts)
	for _, sw := range w.topo.Switches {
		c1 := w.scheme.TenantCache(sw.Idx, 1).Len()
		c2 := w.scheme.TenantCache(sw.Idx, 2).Len()
		if c1 != 192 || c2 != 64 {
			t.Fatalf("switch %d partitions = %d/%d, want 192/64", sw.Idx, c1, c2)
		}
	}
}

func TestTenantVNIOnWire(t *testing.T) {
	w := newTenantWorld(t, tenancyOpts(map[vnet.TenantID]float64{1: 0.5, 2: 0.5}))
	var seen *packet.Packet
	w.e.Handler = func(host int32, p *packet.Packet) { seen = p }
	w.send(1, w.b[0], w.b[9])
	if seen == nil || seen.VNI != 2 {
		t.Fatalf("delivered packet VNI = %+v, want 2", seen)
	}
	// And it survives the wire round trip.
	q, err := packet.Unmarshal(seen.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if q.VNI != 2 {
		t.Fatalf("wire VNI = %d, want 2", q.VNI)
	}
}

func TestTenantMigrationInvalidation(t *testing.T) {
	// The invalidation protocol works per tenant partition.
	opts := tenancyOpts(map[vnet.TenantID]float64{1: 0.5, 2: 0.5})
	opts.LearningPackets = true
	opts.PLearn = 1.0
	w := newTenantWorld(t, opts)
	src, dst := w.a[0], w.a[9]
	w.send(1, src, dst) // warm sender ToR via learning packet
	newHostVIP := w.a[30]
	newHost, _ := w.net.HostOf(newHostVIP)
	oldHost, _ := w.net.HostOf(dst)
	if oldHost == newHost {
		t.Skip("same host placement")
	}
	if err := w.net.Migrate(dst, newHost); err != nil {
		t.Fatal(err)
	}
	var deliveredTo int32 = -1
	w.e.Handler = func(h int32, p *packet.Packet) { deliveredTo = h }
	w.send(2, src, dst)
	if deliveredTo != newHost {
		t.Fatalf("delivered to %d, want %d", deliveredTo, newHost)
	}
	if w.scheme.S.EntriesInvalidated == 0 && w.e.C.Misdeliveries == 0 {
		t.Fatal("expected either a misdelivery or an invalidation")
	}
}

// TestTenantPartitionEvictionAccounting pins eviction accounting at
// partition granularity: overflowing one tenant's tiny partition shows
// up in Stats.EvictionsByLayer, occupancy never exceeds the partition's
// own capacity, and the idle tenant's partitions stay empty — evictions
// are charged to (and contained in) the partition that overflowed, not
// the switch as a whole.
func TestTenantPartitionEvictionAccounting(t *testing.T) {
	opts := tenancyOpts(map[vnet.TenantID]float64{1: 0.5, 2: 0.5})
	// 8 lines per switch → 4-line partitions.
	opts.LinesPerSwitch = 8
	w := newTenantWorld(t, opts)

	evictions := func() int64 {
		var n int64
		for _, e := range w.scheme.S.EvictionsByLayer {
			n += e
		}
		return n
	}

	// Within partition capacity: four destinations, one per line of the
	// 4-line partition, fill it without displacing anything.
	var fill [4]netaddr.VIP
	for _, v := range w.a[10:] {
		if line := netaddr.HashVIP(v) % 4; !fill[line].IsValid() {
			fill[line] = v
		}
	}
	for i, v := range fill {
		if !v.IsValid() {
			t.Fatalf("no destination hashes to line %d", i)
		}
		w.send(uint64(1+i), w.a[0], v)
	}
	if n := evictions(); n != 0 {
		t.Fatalf("evictions before overflow = %d", n)
	}

	// Far past capacity: the partition must evict, and the evictions
	// must be accounted by layer.
	for i := 0; i < 24; i++ {
		w.send(uint64(100+i), w.a[0], w.a[14+i])
	}
	if n := evictions(); n == 0 {
		t.Fatal("partition overflow produced no accounted evictions")
	}
	if w.scheme.S.EvictionsByLayer[LayerToR] == 0 {
		t.Fatalf("no ToR-layer evictions despite sender-ToR overflow: %+v",
			w.scheme.S.EvictionsByLayer)
	}

	// Containment: no partition ever holds more than its own capacity,
	// and tenant B — which sent nothing — still has empty partitions on
	// every switch.
	for _, sw := range w.topo.Switches {
		c1 := w.scheme.TenantCache(sw.Idx, 1)
		if c1.Used() > c1.Len() {
			t.Fatalf("switch %d tenant 1 occupancy %d > capacity %d", sw.Idx, c1.Used(), c1.Len())
		}
		if used := w.scheme.TenantCache(sw.Idx, 2).Used(); used != 0 {
			t.Fatalf("switch %d idle tenant 2 partition holds %d entries", sw.Idx, used)
		}
	}
}

func TestSingleTenantPathUnchanged(t *testing.T) {
	// With Tenancy nil, tenant ids are ignored and the shared cache works.
	opts := DefaultOptions(256)
	opts.LearningPackets = false
	w := newTenantWorld(t, opts)
	w.send(1, w.a[0], w.b[9]) // cross-tenant traffic is fine without isolation
	gw := w.e.C.GatewayPackets
	w.send(2, w.a[0], w.b[9])
	if w.e.C.GatewayPackets != gw {
		t.Fatal("shared-cache repeat flow used the gateway")
	}
}
