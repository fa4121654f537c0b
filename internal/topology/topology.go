// Package topology models the physical data center network: a fat-tree
// of ToR, spine and core switches with hosts (servers and translation
// gateways) attached at the leaves. It classifies switches into the five
// roles SwitchV2P distinguishes (Table 1 of the paper) and computes
// ECMP next-hop tables for shortest-path up/down routing.
package topology

import (
	"fmt"
	"slices"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/simtime"
)

// SwitchRole is the location-derived category of a switch (§3.2).
type SwitchRole uint8

// Switch roles. Gateway ToRs are directly attached to translation
// gateways; gateway spines sit in gateway pods.
const (
	RoleToR SwitchRole = iota
	RoleSpine
	RoleCore
	RoleGatewayToR
	RoleGatewaySpine
)

// String returns the role's name.
func (r SwitchRole) String() string {
	switch r {
	case RoleToR:
		return "tor"
	case RoleSpine:
		return "spine"
	case RoleCore:
		return "core"
	case RoleGatewayToR:
		return "gateway-tor"
	case RoleGatewaySpine:
		return "gateway-spine"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// IsToR reports whether the role is a top-of-rack switch (gateway or not).
func (r SwitchRole) IsToR() bool { return r == RoleToR || r == RoleGatewayToR }

// IsSpine reports whether the role is a spine switch (gateway or not).
func (r SwitchRole) IsSpine() bool { return r == RoleSpine || r == RoleGatewaySpine }

// Layer returns the coarse topology layer used in the hit-distribution
// analysis (Table 5): "tor", "spine" or "core".
func (r SwitchRole) Layer() string {
	switch {
	case r.IsToR():
		return "tor"
	case r.IsSpine():
		return "spine"
	default:
		return "core"
	}
}

// Switch describes one switch in the topology.
type Switch struct {
	Idx  int32 // dense index into Topology.Switches; also the SwitchV2P identifier
	PIP  netaddr.PIP
	Role SwitchRole
	Pod  int // -1 for core switches
	Rack int // rack index within the pod for ToRs, -1 otherwise
}

// Host describes a server or a translation gateway attached to a ToR.
type Host struct {
	Idx     int32 // dense index into Topology.Hosts
	PIP     netaddr.PIP
	Pod     int
	Rack    int
	ToR     int32 // switch index of the attached ToR
	Gateway bool  // true if this host is a translation gateway instance
}

// LinkClass selects link parameters: host links are server NICs, fabric
// links are switch-to-switch.
type LinkClass uint8

// Link classes.
const (
	HostLink LinkClass = iota
	FabricLink
)

// Config parameterizes a fat-tree build. The defaults mirror the paper's
// evaluation setup (§5 "Network parameters").
type Config struct {
	Pods           int
	RacksPerPod    int
	SpinesPerPod   int
	Cores          int
	ServersPerRack int

	// GatewayPods lists the pods that host translation gateways; the last
	// rack's ToR in each becomes the gateway ToR with GatewaysPerPod
	// gateway instances attached. GatewayCounts, when non-nil, overrides
	// GatewaysPerPod with a per-pod count (parallel to GatewayPods).
	GatewayPods    []int
	GatewaysPerPod int
	GatewayCounts  []int

	HostLinkBps   int64            // server NIC speed (bits/s)
	FabricLinkBps int64            // switch-to-switch speed (bits/s)
	LinkDelay     simtime.Duration // per-link propagation delay
	BufferBytes   int              // shared buffer per switch
}

// FT8 returns the FT8-10K configuration from Table 3: 8 pods, 4 racks per
// pod, 32 ToRs, 32 spines, 16 cores, 128 servers, 40 gateways in half the
// pods, 100 Gbps NICs, 400 Gbps fabric, 1 µs link delay, 32 MB buffers.
func FT8() Config {
	return Config{
		Pods: 8, RacksPerPod: 4, SpinesPerPod: 4, Cores: 16, ServersPerRack: 4,
		GatewayPods: []int{0, 2, 5, 7}, GatewaysPerPod: 10,
		HostLinkBps: 100e9, FabricLinkBps: 400e9,
		LinkDelay: simtime.Microsecond, BufferBytes: 32 << 20,
	}
}

// FT16 returns the FT16-400K configuration from Table 3: 50 pods, 8 racks
// per pod, 400 ToRs, 16 cores, 12800 servers, 250 gateways in half the pods.
func FT16() Config {
	gwPods := make([]int, 0, 25)
	for p := 0; p < 50; p += 2 {
		gwPods = append(gwPods, p)
	}
	return Config{
		Pods: 50, RacksPerPod: 8, SpinesPerPod: 8, Cores: 16, ServersPerRack: 32,
		GatewayPods: gwPods, GatewaysPerPod: 10,
		HostLinkBps: 100e9, FabricLinkBps: 400e9,
		LinkDelay: simtime.Microsecond, BufferBytes: 32 << 20,
	}
}

// ScaledFT8 returns the FT8-10K topology rescaled to the given pod count
// while keeping 128 servers total, as in the topology-scaling experiment
// (Fig. 10): the number of servers per rack shrinks as pods grow.
func ScaledFT8(pods int) (Config, error) {
	const totalServers = 128
	cfg := FT8()
	cfg.Pods = pods
	perPod := totalServers / pods
	if perPod*pods != totalServers {
		return Config{}, fmt.Errorf("topology: %d pods does not divide %d servers", pods, totalServers)
	}
	cfg.ServersPerRack = perPod / cfg.RacksPerPod
	if cfg.ServersPerRack*cfg.RacksPerPod != perPod {
		return Config{}, fmt.Errorf("topology: %d pods leaves fractional servers per rack", pods)
	}
	// Keep half the pods as gateway pods (at least one).
	cfg.GatewayPods = nil
	for p := 0; p < pods; p += 2 {
		cfg.GatewayPods = append(cfg.GatewayPods, p)
	}
	// Keep the total gateway count at 40, spreading the remainder over the
	// first pods.
	n := len(cfg.GatewayPods)
	cfg.GatewayCounts = make([]int, n)
	for i := range cfg.GatewayCounts {
		cfg.GatewayCounts[i] = 40 / n
		if i < 40%n {
			cfg.GatewayCounts[i]++
		}
	}
	return cfg, nil
}

// Validate checks that the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Pods <= 0 || c.RacksPerPod <= 0 || c.SpinesPerPod <= 0 || c.Cores <= 0 || c.ServersPerRack < 0:
		return fmt.Errorf("topology: non-positive dimension in %+v", c)
	case c.HostLinkBps <= 0 || c.FabricLinkBps <= 0:
		return fmt.Errorf("topology: non-positive link speed")
	case c.LinkDelay < 0:
		return fmt.Errorf("topology: negative link delay")
	case c.GatewaysPerPod < 0:
		return fmt.Errorf("topology: negative gateways per pod")
	}
	if c.GatewayCounts != nil && len(c.GatewayCounts) != len(c.GatewayPods) {
		return fmt.Errorf("topology: %d gateway counts for %d gateway pods", len(c.GatewayCounts), len(c.GatewayPods))
	}
	for i, p := range c.GatewayPods {
		if p < 0 || p >= c.Pods {
			return fmt.Errorf("topology: gateway pod %d out of range [0,%d)", p, c.Pods)
		}
		if slices.Contains(c.GatewayPods[:i], p) {
			return fmt.Errorf("topology: gateway pod %d listed twice", p)
		}
		if c.GatewayCounts != nil && c.GatewayCounts[i] < 0 {
			return fmt.Errorf("topology: negative gateway count %d for pod %d", c.GatewayCounts[i], p)
		}
	}
	return nil
}

// Edge is one physical link between two attachment points.
type Edge struct {
	A, B  NodeRef
	Class LinkClass
}

// NodeKind discriminates the two endpoint kinds of an Edge.
type NodeKind uint8

// Node kinds.
const (
	KindSwitch NodeKind = iota
	KindHost
)

// NodeRef identifies a switch or host by kind and dense index.
type NodeRef struct {
	Kind NodeKind
	Idx  int32
}

// SwitchRef and HostRef build NodeRefs.
func SwitchRef(i int32) NodeRef { return NodeRef{KindSwitch, i} }

// HostRef returns a NodeRef for host index i.
func HostRef(i int32) NodeRef { return NodeRef{KindHost, i} }

// String renders the ref for error messages and fault timelines.
func (r NodeRef) String() string {
	if r.Kind == KindHost {
		return fmt.Sprintf("host %d", r.Idx)
	}
	return fmt.Sprintf("switch %d", r.Idx)
}

// Topology is a fully built network: switches, hosts, links and ECMP
// next-hop tables. Build one with New.
type Topology struct {
	Cfg      Config
	Switches []Switch
	Hosts    []Host
	Edges    []Edge

	adj        [][]int32 // switch -> neighboring switch indices
	hostsAtToR [][]int32 // switch -> attached host indices (empty for non-ToRs)
	gateways   []int32   // host indices of gateway instances

	// ECMP routes. A source switch has only a handful of distinct next-hop
	// sets (FT16: at most 51, 9 616 over all 816 switches), so each is stored
	// once, as a "group" of consecutive hop slots in hops. The groups of one
	// source are contiguous, the sources in index order: srcStart[s] is the
	// first hop slot of switch s.
	//
	// Which group serves (src, dst) depends on dst only through its class,
	// because New wires every pod alike (DESIGN.md §3): to a ToR or a spine
	// every other pod looks the same. So a pod switch's row has
	// 2·podSize + Cores entries — dst at some position of the source's own
	// pod, of any other pod, or some core — and a core's row has one entry
	// per switch. With cores counted as pod Pods, the entry for (src, dst) is
	//
	//	routes[keys[src].row + classOff[keys[src].class+keys[dst].pod] + keys[dst].pos]
	//
	// classOff holds, for each source pod and for the cores, every
	// destination pod's offset into the row. An entry is the group's slot
	// range; {0, 0} is the empty set (src == dst, or unreachable). FT16:
	// 51 456 entries, where an n × n table had 665 856.
	keys     []routeKey
	classOff []int32
	routes   []hopRange
	hops     []int32
	srcStart []int32

	// byPIP resolves an address: PIPs come from one sequential allocator, so
	// pip - firstPIP is a dense index. Entries >= 0 are host indices, entries
	// < 0 are ^switch index.
	firstPIP netaddr.PIP
	byPIP    []int32
}

// routeKey is what the route lookup reads about a switch: row and class
// as the source, pod and pos as the destination.
type routeKey struct {
	row   int32 // first entry of the switch's row in routes
	class int32 // first entry of its pod's line in classOff
	pod   int32 // pod index, Pods for a core
	pos   int32 // index within the pod (ToRs, then spines), or core index
}

// hopRange is the half-open range of hop slots of one group.
type hopRange struct{ lo, hi int32 }

// New builds the fat-tree described by cfg and computes routing tables.
func New(cfg Config) (*Topology, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{Cfg: cfg}

	gwCount := make(map[int]int, len(cfg.GatewayPods))
	for i, p := range cfg.GatewayPods {
		n := cfg.GatewaysPerPod
		if cfg.GatewayCounts != nil {
			n = cfg.GatewayCounts[i]
		}
		gwCount[p] = n
	}
	gwPod := func(p int) bool { _, ok := gwCount[p]; return ok }

	// Every address comes from this one sequential allocator, so byPIP
	// grows in step with it and pip - firstPIP is the entry's index.
	var pips netaddr.PIPAllocator
	newPIP := func(entry int32) netaddr.PIP {
		p := pips.Next()
		if len(t.byPIP) == 0 {
			t.firstPIP = p
		}
		t.byPIP = append(t.byPIP, entry)
		return p
	}
	addSwitch := func(role SwitchRole, pod, rack int) int32 {
		idx := int32(len(t.Switches))
		t.Switches = append(t.Switches, Switch{Idx: idx, PIP: newPIP(^idx), Role: role, Pod: pod, Rack: rack})
		return idx
	}
	addHost := func(pod, rack int, tor int32, gw bool) int32 {
		idx := int32(len(t.Hosts))
		t.Hosts = append(t.Hosts, Host{Idx: idx, PIP: newPIP(idx), Pod: pod, Rack: rack, ToR: tor, Gateway: gw})
		if gw {
			t.gateways = append(t.gateways, idx)
		}
		return idx
	}

	// ToRs and spines per pod; the gateway ToR is the last rack's ToR of a
	// gateway pod (matching Fig. 8's "spines 1-4, ToRs 5-7, gateway ToR 8").
	tors := make([][]int32, cfg.Pods)   // [pod][rack]
	spines := make([][]int32, cfg.Pods) // [pod][spine]
	for p := 0; p < cfg.Pods; p++ {
		tors[p] = make([]int32, cfg.RacksPerPod)
		for r := 0; r < cfg.RacksPerPod; r++ {
			role := RoleToR
			if gwPod(p) && r == cfg.RacksPerPod-1 {
				role = RoleGatewayToR
			}
			tors[p][r] = addSwitch(role, p, r)
		}
		spines[p] = make([]int32, cfg.SpinesPerPod)
		for s := 0; s < cfg.SpinesPerPod; s++ {
			role := RoleSpine
			if gwPod(p) {
				role = RoleGatewaySpine
			}
			spines[p][s] = addSwitch(role, p, -1)
		}
	}
	cores := make([]int32, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		cores[c] = addSwitch(RoleCore, -1, -1)
	}

	t.hostsAtToR = make([][]int32, len(t.Switches))
	t.adj = make([][]int32, len(t.Switches))

	addEdge := func(a, b NodeRef, class LinkClass) {
		t.Edges = append(t.Edges, Edge{A: a, B: b, Class: class})
		if a.Kind == KindSwitch && b.Kind == KindSwitch {
			t.adj[a.Idx] = append(t.adj[a.Idx], b.Idx)
			t.adj[b.Idx] = append(t.adj[b.Idx], a.Idx)
		}
	}

	// Hosts: servers in every rack; gateways on gateway ToRs.
	for p := 0; p < cfg.Pods; p++ {
		for r := 0; r < cfg.RacksPerPod; r++ {
			tor := tors[p][r]
			for s := 0; s < cfg.ServersPerRack; s++ {
				h := addHost(p, r, tor, false)
				t.hostsAtToR[tor] = append(t.hostsAtToR[tor], h)
				addEdge(HostRef(h), SwitchRef(tor), HostLink)
			}
		}
		if gwPod(p) {
			tor := tors[p][cfg.RacksPerPod-1]
			for g := 0; g < gwCount[p]; g++ {
				h := addHost(p, cfg.RacksPerPod-1, tor, true)
				t.hostsAtToR[tor] = append(t.hostsAtToR[tor], h)
				addEdge(HostRef(h), SwitchRef(tor), HostLink)
			}
		}
	}

	// Fabric: every ToR connects to every spine in its pod; core c connects
	// to spine (c mod SpinesPerPod) in every pod.
	for p := 0; p < cfg.Pods; p++ {
		for _, tor := range tors[p] {
			for _, sp := range spines[p] {
				addEdge(SwitchRef(tor), SwitchRef(sp), FabricLink)
			}
		}
		for c, core := range cores {
			sp := spines[p][c%cfg.SpinesPerPod]
			addEdge(SwitchRef(sp), SwitchRef(core), FabricLink)
		}
	}

	t.computeRoutes()
	return t, nil
}

// computeRoutes fills the ECMP tables (see Topology.keys): the next hops
// from src toward dst are the neighbors of src, in adjacency order, that
// are one hop closer to dst than src is.
//
// It runs one BFS from each switch of pod 0 and one from each core. Swapping
// two pods switch for switch maps the fabric onto itself, so for dst in pod
// q, dist(v, dst) = dist(swap(v), swap(dst)) with swap the transposition of
// pods 0 and q, and swap(dst) lies in pod 0.
func (t *Topology) computeRoutes() {
	n := int32(len(t.Switches))
	pods, cores := int32(t.Cfg.Pods), int32(t.Cfg.Cores)
	podSize := int32(t.Cfg.RacksPerPod + t.Cfg.SpinesPerPod)
	inPods := pods * podSize // New numbers pod p's switches p·podSize.., then the cores

	t.keys = make([]routeKey, n)
	rowLen := int32(0)
	for s := range n {
		k := &t.keys[s]
		k.row = rowLen
		if s < inPods {
			k.pod, k.pos = s/podSize, s%podSize
			rowLen += 2*podSize + cores
		} else {
			k.pod, k.pos = pods, s-inPods
			rowLen += n
		}
		k.class = k.pod * (pods + 1)
	}
	// A pod switch's row: its own pod, then any other pod, then the cores.
	// A core's row: every switch in index order.
	t.classOff = make([]int32, (pods+1)*(pods+1))
	for p := range pods + 1 {
		for q := range pods + 1 {
			off := &t.classOff[p*(pods+1)+q]
			switch {
			case p == pods:
				*off = q * podSize
			case q == pods:
				*off = 2 * podSize
			case q != p:
				*off = podSize
			}
		}
	}

	// bfs[b*n+v] is the hop count between v and root b: switch b of pod 0
	// for b < podSize, core b-podSize after that; -1 when disconnected.
	bfs := make([]int16, (podSize+cores)*n)
	for i := range bfs {
		bfs[i] = -1
	}
	queue := make([]int32, 0, n)
	for b := range podSize + cores {
		root := b
		if b >= podSize {
			root = inPods + b - podSize
		}
		d := bfs[b*n : (b+1)*n]
		d[root] = 0
		queue = append(queue[:0], root)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range t.adj[u] {
				if d[v] < 0 {
					d[v] = d[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	// swap exchanges pods 0 and q (< pods) switch for switch.
	swap := func(v, q int32) int32 {
		if v < inPods {
			switch v / podSize {
			case q:
				return v - q*podSize
			case 0:
				return v + q*podSize
			}
		}
		return v
	}
	dist := func(v, dst int32) int16 {
		kd := t.keys[dst]
		if kd.pod == pods {
			return bfs[(podSize+kd.pos)*n+v]
		}
		return bfs[kd.pos*n+swap(v, kd.pod)]
	}

	t.routes = make([]hopRange, rowLen)
	t.srcStart = make([]int32, n+1)
	var set, reps []int32
	var mine []hopRange // the groups of the current source
	for src := range n {
		t.srcStart[src] = int32(len(t.hops))
		mine = mine[:0]
		// The pods whose switches stand for every destination class of
		// src, ascending, so that groups are numbered in the order their
		// first destination has in the switch index: a core needs them
		// all, a pod switch its own pod and one other, pod 0 or else 1.
		ks := t.keys[src]
		other := int32(0)
		if ks.pod == 0 {
			other = 1
		}
		reps = reps[:0]
		switch {
		case ks.pod == pods:
			for q := range pods {
				reps = append(reps, q)
			}
		case other == pods: // a one-pod fabric has no other pod
			reps = append(reps, ks.pod)
		default:
			reps = append(reps, min(ks.pod, other), max(ks.pod, other))
		}
		reps = append(reps, pods) // the cores
		for _, q := range reps {
			width := podSize
			if q == pods {
				width = cores
			}
			row := t.routes[ks.row+t.classOff[ks.class+q]:][:width]
			for pos := range width {
				dst := q*podSize + pos
				d := dist(src, dst)
				if d <= 0 {
					continue // src == dst or unreachable: the empty range
				}
				// src's own adjacency, so that hop order is edge order.
				set = set[:0]
				for _, v := range t.adj[src] {
					if dist(v, dst) == d-1 {
						set = append(set, v)
					}
				}
				// Neighboring destinations mostly share a group, so try the
				// previous destination's first; a source has few groups, so a
				// scan finds the rest.
				if pos > 0 && slices.Equal(t.hops[row[pos-1].lo:row[pos-1].hi], set) {
					row[pos] = row[pos-1]
					continue
				}
				g := slices.IndexFunc(mine, func(g hopRange) bool { return slices.Equal(t.hops[g.lo:g.hi], set) })
				if g < 0 {
					g = len(mine)
					mine = append(mine, hopRange{int32(len(t.hops)), int32(len(t.hops) + len(set))})
					t.hops = append(t.hops, set...)
				}
				row[pos] = mine[g]
			}
		}
	}
	t.srcStart[n] = int32(len(t.hops))
}

// route returns the slot range of the next hops from src toward dst.
func (t *Topology) route(src, dst int32) hopRange {
	s, d := &t.keys[src], &t.keys[dst]
	return t.routes[s.row+t.classOff[s.class+d.pod]+d.pos]
}

// NextHops returns the ECMP next-hop candidates from switch src toward
// switch dst. The slice is empty when dst is unreachable or src == dst. It
// is capped, so an append by a caller cannot reach into the next group.
func (t *Topology) NextHops(src, dst int32) []int32 {
	r := t.route(src, dst)
	return t.hops[r.lo:r.hi:r.hi]
}

// HopRange returns the half-open range of hop slots that hold
// NextHops(src, dst); HopSlots says which switch each slot leads to. A
// forwarding engine keeps its egress links in an array parallel to the
// slots, so picking a next hop is a few table reads and no search.
func (t *Topology) HopRange(src, dst int32) (lo, hi int32) {
	r := t.route(src, dst)
	return r.lo, r.hi
}

// HopSlots returns every hop slot: slot i leads to switch next[i], and
// next[srcStart[s]:srcStart[s+1]] are the slots of source switch s (all
// of its next-hop groups, each stored once). Both slices are the
// topology's own; callers must not modify them.
func (t *Topology) HopSlots() (next, srcStart []int32) { return t.hops, t.srcStart }

// SwitchDistance returns the hop count between two switches, or -1 if
// disconnected.
func (t *Topology) SwitchDistance(a, b int32) int {
	if a == b {
		return 0
	}
	d := 0
	cur := a
	for cur != b {
		hops := t.NextHops(cur, b)
		if len(hops) == 0 {
			return -1
		}
		cur = hops[0]
		d++
		if d > len(t.Switches) {
			return -1
		}
	}
	return d
}

// HostsAtToR returns the host indices attached to the given switch.
func (t *Topology) HostsAtToR(sw int32) []int32 { return t.hostsAtToR[sw] }

// SwitchByPIP resolves a physical address to a switch index.
func (t *Topology) SwitchByPIP(p netaddr.PIP) (int32, bool) {
	// An address below firstPIP wraps to a huge index and misses too.
	if i := uint32(p - t.firstPIP); i < uint32(len(t.byPIP)) && t.byPIP[i] < 0 {
		return ^t.byPIP[i], true
	}
	return 0, false
}

// HostByPIP resolves a physical address to a host index.
func (t *Topology) HostByPIP(p netaddr.PIP) (int32, bool) {
	if i := uint32(p - t.firstPIP); i < uint32(len(t.byPIP)) && t.byPIP[i] >= 0 {
		return t.byPIP[i], true
	}
	return 0, false
}

// Gateways returns the host indices of all translation gateway instances.
func (t *Topology) Gateways() []int32 { return t.gateways }

// Servers returns the host indices of all non-gateway servers.
func (t *Topology) Servers() []int32 {
	var out []int32
	for _, h := range t.Hosts {
		if !h.Gateway {
			out = append(out, h.Idx)
		}
	}
	return out
}

// ToRs returns the switch indices of all (gateway and regular) ToRs.
func (t *Topology) ToRs() []int32 {
	var out []int32
	for _, s := range t.Switches {
		if s.Role.IsToR() {
			out = append(out, s.Idx)
		}
	}
	return out
}

// SwitchesInPod returns the switch indices belonging to the given pod,
// spines first then ToRs, matching the paper's Fig. 8 switch numbering.
func (t *Topology) SwitchesInPod(pod int) []int32 {
	var spines, tors []int32
	for _, s := range t.Switches {
		if s.Pod != pod {
			continue
		}
		if s.Role.IsSpine() {
			spines = append(spines, s.Idx)
		} else {
			tors = append(tors, s.Idx)
		}
	}
	return append(spines, tors...)
}

// String summarizes the topology (Table 3 style).
func (t *Topology) String() string {
	nTor, nSpine, nCore, nGw := 0, 0, 0, 0
	for _, s := range t.Switches {
		switch {
		case s.Role.IsToR():
			nTor++
		case s.Role.IsSpine():
			nSpine++
		default:
			nCore++
		}
	}
	nServers := 0
	for _, h := range t.Hosts {
		if h.Gateway {
			nGw++
		} else {
			nServers++
		}
	}
	return fmt.Sprintf("fat-tree: %d pods, %d ToRs, %d spines, %d cores, %d servers, %d gateways",
		t.Cfg.Pods, nTor, nSpine, nCore, nServers, nGw)
}
