package vnet

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/topology"
)

// modelNet is the independent reference the dense tables are checked
// against: the virtual network kept the obvious way, in maps keyed by
// address. Each mutation returns whether the real Net must accept it.
type modelNet struct {
	hosts    []topology.Host
	issued   []netaddr.VIP // every address handed out, in order
	hostOf   map[netaddr.VIP]int32
	tenantOf map[netaddr.VIP]TenantID
	followMe map[modelRule]netaddr.PIP
	version  uint64
}

type modelRule struct {
	oldHost int32
	vip     netaddr.VIP
}

func (m *modelNet) server(h int32) bool {
	return h >= 0 && int(h) < len(m.hosts) && !m.hosts[h].Gateway
}

func (m *modelNet) place(vip netaddr.VIP, host int32, tenant TenantID) bool {
	_, placed := m.hostOf[vip]
	if !slices.Contains(m.issued, vip) || placed || !m.server(host) || tenant > MaxTenantID {
		return false
	}
	m.hostOf[vip], m.tenantOf[vip] = host, tenant
	m.version++
	return true
}

func (m *modelNet) migrate(vip netaddr.VIP, host int32) bool {
	old, placed := m.hostOf[vip]
	if !placed || !m.server(host) || old == host {
		return false
	}
	m.followMe[modelRule{old, vip}] = m.hosts[host].PIP
	m.hostOf[vip] = host
	m.version++
	return true
}

func (m *modelNet) remove(vip netaddr.VIP) bool {
	if _, placed := m.hostOf[vip]; !placed {
		return false
	}
	delete(m.hostOf, vip)
	delete(m.tenantOf, vip)
	maps.DeleteFunc(m.followMe, func(r modelRule, _ netaddr.PIP) bool { return r.vip == vip })
	m.version++
	return true
}

// modelTenants are the tenant arguments the op stream draws from: the
// default tenant (twice as likely), small ids, the largest id the VNI
// field holds, and one past it.
var modelTenants = [...]TenantID{0, 0, 1, 2, 7, MaxTenantID, MaxTenantID + 1}

// netModelRun drives a Net and the model with one op stream, four bytes
// per op (opcode, address selector, host selector, tenant selector), and
// compares every observable after every op.
type netModelRun struct {
	t *testing.T
	n *Net
	m modelNet
}

// host maps a selector byte to a host argument: mostly a host of the
// topology, gateways included, sometimes an index outside it.
func (r *netModelRun) host(b byte) int32 {
	k := len(r.m.hosts)
	if b%8 != 7 {
		return int32(int(b) % k)
	}
	outside := [...]int32{-1, int32(k), int32(k) + 7, math.MaxInt32, math.MinInt32}
	return outside[int(b/8)%len(outside)]
}

// foreign returns the four addresses no Net may know: zero, the ones
// just below and just above the issued range, and all ones.
func (r *netModelRun) foreign() []netaddr.VIP {
	var first, last netaddr.VIP = 1, 0 // nothing issued yet: 0 and 1 stand in
	if k := len(r.m.issued); k > 0 {
		first, last = r.m.issued[0], r.m.issued[k-1]
	}
	return []netaddr.VIP{0, first - 1, last + 1, ^netaddr.VIP(0)}
}

// vip maps a selector byte to an address argument: mostly issued
// addresses, sometimes a foreign one.
func (r *netModelRun) vip(b byte) netaddr.VIP {
	if k := len(r.m.issued); k > 0 && b%8 != 7 {
		return r.m.issued[int(b)%k]
	}
	return r.foreign()[b/8%4]
}

// issue records an address the Net handed out: the first is whatever the
// allocator starts at, every later one the successor of the last.
func (r *netModelRun) issue(vip netaddr.VIP) {
	if k := len(r.m.issued); vip == netaddr.NoVIP || k > 0 && vip != r.m.issued[k-1]+1 {
		r.t.Fatalf("issued %v after %v", vip, r.m.issued)
	}
	r.m.issued = append(r.m.issued, vip)
}

// add runs AddVM / AddVMForTenant, which panic on a host that cannot run
// VMs; the model says whether they must.
func (r *netModelRun) add(host int32, tenant TenantID, forTenant bool) {
	wantErr := forTenant && tenant > MaxTenantID
	wantPanic := !wantErr && !r.m.server(host)
	var vip netaddr.VIP
	var err error
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		if forTenant {
			vip, err = r.n.AddVMForTenant(host, tenant)
		} else {
			vip = r.n.AddVM(host)
		}
		return false
	}()
	if panicked != wantPanic || (err != nil) != wantErr {
		r.t.Fatalf("add(host %d, tenant %d): panicked %v err %v, model wants panic %v error %v", host, tenant, panicked, err, wantPanic, wantErr)
	}
	if !panicked && err == nil {
		r.issue(vip)
		if !r.m.place(vip, host, tenant) {
			r.t.Fatalf("add(host %d, tenant %d) succeeded; the model rejects it", host, tenant)
		}
	}
}

func (r *netModelRun) op(code, a, b, c byte) {
	vip, host, tenant := r.vip(a), r.host(b), modelTenants[int(c)%len(modelTenants)]
	switch code % 6 {
	case 0:
		r.add(host, 0, false)
	case 1:
		r.add(host, tenant, true)
	case 2:
		r.issue(r.n.ReserveVIP())
	case 3:
		if err, want := r.n.PlaceVM(vip, host, tenant), r.m.place(vip, host, tenant); (err == nil) != want {
			r.t.Fatalf("PlaceVM(%v, %d, %d) = %v, model accepts: %v", vip, host, tenant, err, want)
		}
	case 4:
		if err, want := r.n.Migrate(vip, host), r.m.migrate(vip, host); (err == nil) != want {
			r.t.Fatalf("Migrate(%v, %d) = %v, model accepts: %v", vip, host, err, want)
		}
	case 5:
		if err, want := r.n.RemoveVM(vip), r.m.remove(vip); (err == nil) != want {
			r.t.Fatalf("RemoveVM(%v) = %v, model accepts: %v", vip, err, want)
		}
	}
	r.compare()
}

// compare checks every read accessor of the Net against the model.
func (r *netModelRun) compare() {
	t, n, m := r.t, r.n, &r.m
	if n.Version != m.version || n.NumVMs() != len(m.hostOf) {
		t.Fatalf("Version %d NumVMs %d, model %d and %d", n.Version, n.NumVMs(), m.version, len(m.hostOf))
	}
	var mappings []netaddr.Mapping
	vmsAt := make([][]netaddr.VIP, len(m.hosts))
	tenantVMs := map[TenantID][]netaddr.VIP{}
	for _, vip := range slices.Concat(m.issued, r.foreign()) { // issue order is VIP order
		host, placed := m.hostOf[vip]
		var pip netaddr.PIP
		if placed {
			pip = m.hosts[host].PIP
			mappings = append(mappings, netaddr.Mapping{VIP: vip, PIP: pip})
			vmsAt[host] = append(vmsAt[host], vip)
			tenantVMs[m.tenantOf[vip]] = append(tenantVMs[m.tenantOf[vip]], vip)
		}
		if got, ok := n.Lookup(vip); got != pip || ok != placed {
			t.Fatalf("Lookup(%v) = %v,%v, model %v,%v", vip, got, ok, pip, placed)
		}
		if got, ok := n.HostOf(vip); got != host || ok != placed {
			t.Fatalf("HostOf(%v) = %d,%v, model %d,%v", vip, got, ok, host, placed)
		}
		if got := n.TenantOf(vip); got != m.tenantOf[vip] {
			t.Fatalf("TenantOf(%v) = %d, model %d", vip, got, m.tenantOf[vip])
		}
		for _, h := range [...]int32{host, host + 1, 0} {
			if got := n.HostHasVM(h, vip); got != (placed && h == host) {
				t.Fatalf("HostHasVM(%d, %v) = %v; model has the VM on %d, placed %v", h, vip, got, host, placed)
			}
		}
		for old := range m.hosts {
			want, has := m.followMe[modelRule{int32(old), vip}]
			if got, ok := n.FollowMe(int32(old), vip); got != want || ok != has {
				t.Fatalf("FollowMe(%d, %v) = %v,%v, model %v,%v", old, vip, got, ok, want, has)
			}
		}
	}
	if got := n.AllMappings(); !slices.Equal(got, mappings) {
		t.Fatalf("AllMappings = %v, model %v", got, mappings)
	}
	for _, tenant := range modelTenants {
		if got := n.TenantVMs(tenant); !slices.Equal(got, tenantVMs[tenant]) {
			t.Fatalf("TenantVMs(%d) = %v, model %v", tenant, got, tenantVMs[tenant])
		}
	}
	for h, want := range vmsAt { // VMsAt promises no order: compare as sets
		got := slices.Clone(n.VMsAt(int32(h)))
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("VMsAt(%d) = %v, model %v", h, got, want)
		}
	}
	if got := n.VMsAt(-1); got != nil {
		t.Fatalf("VMsAt(-1) = %v, want none", got)
	}
	if got := n.VMsAt(int32(len(m.hosts))); got != nil {
		t.Fatalf("VMsAt(%d) = %v, want none", len(m.hosts), got)
	}
}

// modelTopology is small enough that a selector byte reaches every host:
// 2 pods of 2 racks, 16 servers and 4 gateways.
func modelTopology(t testing.TB) *topology.Topology {
	cfg := topology.FT8()
	cfg.Pods, cfg.RacksPerPod, cfg.SpinesPerPod, cfg.Cores = 2, 2, 2, 2
	cfg.GatewayPods, cfg.GatewaysPerPod = []int{0, 1}, 2
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func runNetModelOps(t *testing.T, ops []byte) {
	topo := modelTopology(t)
	r := &netModelRun{t: t, n: New(topo), m: modelNet{
		hosts:    topo.Hosts,
		hostOf:   map[netaddr.VIP]int32{},
		tenantOf: map[netaddr.VIP]TenantID{},
		followMe: map[modelRule]netaddr.PIP{},
	}}
	r.compare()
	for ; len(ops) >= 4; ops = ops[4:] {
		r.op(ops[0], ops[1], ops[2], ops[3])
	}
}

// TestNetMatchesModel runs seeded random op streams, invalid arguments
// included, through the Net and the model.
func TestNetMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ops := make([]byte, 4*400)
		rand.New(rand.NewSource(seed)).Read(ops)
		runNetModelOps(t, ops)
	}
}

// FuzzNetModel lets the fuzzer search for an op stream on which the Net
// and the model disagree. Seed corpus: testdata/fuzz/FuzzNetModel.
func FuzzNetModel(f *testing.F) {
	f.Add([]byte{1, 0, 3, 2, 4, 0, 5, 0, 5, 0, 0, 0, 3, 0, 3, 0}) // add for tenant 1, migrate, remove, re-place
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*512 {
			ops = ops[:4*512]
		}
		runNetModelOps(t, ops)
	})
}
