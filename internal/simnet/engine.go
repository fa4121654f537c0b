// Package simnet is the discrete-event, packet-level network simulator
// the evaluation runs on (the NS3 substitute). It moves packets between
// hosts and switches over bandwidth- and delay-modeled links with
// shared-buffer switch queues and ECMP multipath routing, applies the
// translation-gateway processing model, and delegates every
// translation-policy decision to a pluggable Scheme.
package simnet

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"switchv2p/internal/eventq"
	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/vnet"
)

// Config holds the engine parameters that are common to all schemes.
// The defaults (see DefaultConfig) follow §5 "Network parameters".
type Config struct {
	// GatewayDelay is the translation gateway's per-packet processing
	// latency (Sailfish-calibrated 40 µs).
	GatewayDelay simtime.Duration
	// MisdeliveryDelay is the hypervisor's processing overhead for
	// re-forwarding a packet that can no longer be delivered locally.
	MisdeliveryDelay simtime.Duration
	// BaseRTT is the network's base round-trip time, used by SwitchV2P's
	// invalidation timestamp vector.
	BaseRTT simtime.Duration
	// ActiveGateways restricts senders to the first N gateway instances
	// (the Fig. 9 gateway-reduction sweep); 0 means all gateways.
	ActiveGateways int
}

// DefaultConfig returns the paper's evaluation parameters.
func DefaultConfig() Config {
	return Config{
		GatewayDelay:     40 * simtime.Microsecond,
		MisdeliveryDelay: 10 * simtime.Microsecond,
		BaseRTT:          12 * simtime.Microsecond,
	}
}

// Counters aggregates the engine-level measurements every experiment
// reads. Scheme-level counters (cache hits etc.) live in the schemes.
type Counters struct {
	SwitchPackets []int64 // per switch index
	SwitchBytes   []int64 // per switch index
	SwitchDrops   []int64 // shared-buffer overflow drops, per switch index

	GatewayPackets int64 // packets processed by translation gateways
	GatewayBytes   int64
	// GatewayPktByHost / GatewayByteByHost break the gateway load down
	// per gateway instance (indexed by host; zero for non-gateways).
	GatewayPktByHost  []int64
	GatewayByteByHost []int64
	HostSent          int64 // tenant packets emitted by hosts (excluding re-sends)

	Delivered      int64 // tenant packets delivered to the right host
	DeliveredBytes int64
	DataDelivered  int64 // Data packets only (excludes ACKs)
	DataHopsSum    int64 // sum of switch hops over delivered Data packets
	LatencySumNs   int64 // sum of per-packet delivery latency over Data packets

	Misdeliveries     int64        // packets that arrived at a host no longer running the VM
	LastMisdelivered  simtime.Time // arrival time (at the correct host) of the last once-misdelivered packet
	Drops             int64        // buffer overflows, unroutable packets and every kind counted below
	LearningPkts      int64        // learning packets injected
	InvalidationPkts  int64        // invalidation packets injected
	ConsumedControl   int64        // control packets consumed by switches
	StrayControlPkts  int64        // control packets that reached a host (should not happen)
	GatewayUnknownVIP int64        // gateway lookups that failed (should not happen)

	// Fault-injection counters (internal/faults). All three kinds of
	// fault drop also count toward Drops, so packet conservation (at
	// drain, HostSent + LearningPkts + InvalidationPkts == Delivered +
	// Drops + ConsumedControl + StrayControlPkts) holds under any fault
	// schedule.
	FaultDrops int64 // packets dropped at a downed link, switch or gateway
	LossDrops  int64 // packets dropped by a probabilistic loss window
	Rerouted   int64 // packets steered off their hash-preferred ECMP hop

	// LoopDrops counts packets dropped for arriving at a switch past
	// their hop budget (MaxHops), also in Drops: a forwarding loop made
	// finite. Any run with LoopDrops > 0 has a protocol bug.
	LoopDrops int64
}

// MaxHops is a packet's switch-traversal budget. The longest legitimate
// path is a gateway detour, sender to gateway and gateway to receiver,
// at most five switches each on a three-tier fat-tree; a hypervisor
// misdelivery re-forward adds another gateway detour, and a packet
// meets at most a few of them while a VM migrates. 64 covers that with
// room to spare (no golden and no case of the 10 000-case random-scenario
// search passes 20), and cuts a forwarding loop off after a few laps.
const MaxHops = 64

// Engine wires a topology, a virtual network, and a scheme into a
// runnable simulation.
type Engine struct {
	Q      *eventq.Queue
	Topo   *topology.Topology
	Net    *vnet.Net
	Scheme Scheme
	Cfg    Config
	C      Counters

	// Handler receives tenant packets delivered to their (correct)
	// destination host. The transport layer registers itself here. It may
	// read p until it returns; the engine releases the packet right after,
	// so what must outlive the call is copied out, never the pointer.
	Handler func(host int32, p *packet.Packet)

	// Tap, when non-nil, observes every packet arrival at a switch (kind
	// KindSwitch) or host (KindHost) — a capture point for tracing tools.
	// Like Handler it may read p during the call only; a tool that keeps
	// what it saw keeps p.Clone() (internal/ptrace does).
	Tap func(at topology.NodeRef, p *packet.Packet)

	// TapOwner optionally identifies the party that installed Tap.
	// Closures compare unequal even to themselves, so tooling that
	// replaces a tap (e.g. internal/ptrace) records its identity here
	// and detaches only if it is still the owner — closing a replaced
	// tracer then cannot clobber its successor's tap.
	TapOwner any

	// Prof, when non-nil, enables the engine profiling hooks: Run charges
	// the events it dispatched, the queue-depth high-water mark, host wall
	// clock and allocations to the profile. The run loop is the same
	// either way.
	Prof *EngineProfile

	// Link tables, built once in New so the forwarding hot path is plain
	// array reads: swNbr[s] holds the egress links from switch s to each
	// neighboring switch, in edge order; hopLink is parallel to the
	// topology's hop slots (Topology.HopRange / HopSlots), so the links
	// toward the ECMP next hops from one switch to another are one
	// sub-slice of it.
	swNbr    [][]*link
	hopLink  []*link
	hostUp   []*link // host -> its ToR
	hostDown []*link // ToR -> host, indexed by host
	// bufUsed is each switch's shared-buffer occupancy, settled lazily:
	// an upper bound that admit and settle make exact when it matters
	// (link.go).
	bufUsed []int
	// bufLastSw and bufPeak back BufferGauge: the switch whose buffer
	// admitted a packet last (-1 before the first), and the largest
	// occupancy any switch buffer has reached.
	bufLastSw int32
	bufPeak   int64

	gateways []int32 // host indices senders may load-balance over
	nextUID  uint64
	// held counts the packets off the links in a pending hostEvent: inside
	// a gateway or misdelivery delay, or held for the scheme by Hold
	// (ConservationGap).
	held int64

	// pool is where the simulation's own packets come from (Packets) and
	// where the engine puts a packet back at the point its books close it:
	// delivered, dropped, consumed or stray. A packet has one owner (see
	// Scheme), so nothing reads it after that point. Nil once
	// EnableSharding ran: a packet released on another domain's worker
	// would land on a foreign free list, and a nil pool pools nothing.
	pool *packet.Pool

	// Fault-injection state (see faults.go). swDown/gwDown mark failed
	// switches and outaged gateway instances; lossRand drives the
	// per-link loss coin flips (created lazily by SetLossSeed/SetLinkLoss,
	// always per-engine — never global — so same-seed runs are
	// byte-identical).
	swDown   []bool
	gwDown   []bool
	lossRand *rand.Rand
	lossSeed int64 // seed recorded by SetLossSeed for per-shard derivation

	// ShardOracle selects the sharded engine's serial reference mode:
	// the same domain partition, per-domain queues and cross-domain keys,
	// but a single goroutine dispatching the globally earliest event and
	// delivering cross-domain handoffs eagerly (no lookahead windows, no
	// mailbox batching). It is the reference the windowed runs are tested
	// against: byte-identity between the two proves the conservative
	// synchronization protocol exact. Set before EnableSharding takes
	// effect at the first Run.
	ShardOracle bool

	// Sharding state (see shard.go). shard is non-nil on the root engine
	// once EnableSharding ran; dom is this engine's domain index on a
	// per-shard view, -1 on the root. hostEvFree / crossFree are the
	// per-engine pools for gateway/misdelivery records and cross-shard
	// arrival records.
	shard      *sharding
	dom        int32
	hostEvFree []*hostEvent
	crossFree  []*crossEvent
}

// New builds an engine over the given topology and virtual network.
func New(topo *topology.Topology, net *vnet.Net, scheme Scheme, cfg Config) *Engine {
	e := &Engine{
		Q:      &eventq.Queue{},
		Topo:   topo,
		Net:    net,
		Scheme: scheme,
		Cfg:    cfg,
		dom:    -1,
		pool:   &packet.Pool{},

		bufLastSw: -1, // no switch has admitted a packet yet
	}
	e.C.SwitchPackets = make([]int64, len(topo.Switches))
	e.C.SwitchBytes = make([]int64, len(topo.Switches))
	e.C.SwitchDrops = make([]int64, len(topo.Switches))
	e.C.GatewayPktByHost = make([]int64, len(topo.Hosts))
	e.C.GatewayByteByHost = make([]int64, len(topo.Hosts))
	e.bufUsed = make([]int, len(topo.Switches))
	e.swDown = make([]bool, len(topo.Switches))
	e.gwDown = make([]bool, len(topo.Hosts))
	e.hostUp = make([]*link, len(topo.Hosts))
	e.hostDown = make([]*link, len(topo.Hosts))
	e.swNbr = make([][]*link, len(topo.Switches))

	for _, edge := range topo.Edges {
		e.addLink(edge.A, edge.B, edge.Class)
		e.addLink(edge.B, edge.A, edge.Class)
	}
	// One link per hop slot, walking each switch's own slots: a switch has
	// a few dozen of them, against len(Switches) destinations.
	next, srcStart := topo.HopSlots()
	e.hopLink = make([]*link, len(next))
	for sw := range topo.Switches {
		for i := srcStart[sw]; i < srcStart[sw+1]; i++ {
			e.hopLink[i] = e.fabricLink(int32(sw), next[i])
		}
	}

	// Copy the accessor's slice instead of aliasing it: Gateways()
	// returns the topology's internal slice, so two engines sharing one
	// topology (or a caller mutating the returned slice) must not be able
	// to corrupt this engine's gateway set.
	all := topo.Gateways()
	n := cfg.ActiveGateways
	if n <= 0 || n > len(all) {
		n = len(all)
	}
	e.gateways = append([]int32(nil), all[:n]...)
	return e
}

func (e *Engine) addLink(from, to topology.NodeRef, class topology.LinkClass) {
	bps := e.Topo.Cfg.FabricLinkBps
	if class == topology.HostLink {
		bps = e.Topo.Cfg.HostLinkBps
	}
	l := &link{
		e:          e,
		dst:        e,
		bps:        bps,
		delay:      e.Topo.Cfg.LinkDelay,
		fromSwitch: -1,
		dstSw:      -1,
		dstHost:    -1,
	}
	if from.Kind == topology.KindSwitch {
		l.fromSwitch = from.Idx
	}
	switch to.Kind {
	case topology.KindSwitch:
		l.dstSw = to.Idx
		l.fromRef = from
	case topology.KindHost:
		l.dstHost = to.Idx
	}
	if from.Kind == topology.KindHost {
		e.hostUp[from.Idx] = l
	} else if to.Kind == topology.KindHost {
		e.hostDown[to.Idx] = l
	} else {
		e.swNbr[from.Idx] = append(e.swNbr[from.Idx], l)
	}
}

// fabricLink returns the egress link from switch from to its neighbor
// switch to, or nil when the two are not adjacent (or from is no switch
// index). A scan of from's own links — at most an FT16 core's 50 — for
// wiring and fault-time code, not for the forwarding path.
func (e *Engine) fabricLink(from, to int32) *link {
	if from < 0 || int(from) >= len(e.swNbr) {
		return nil
	}
	for _, l := range e.swNbr[from] {
		if l.dstSw == to {
			return l
		}
	}
	return nil
}

// Now returns the current simulated time. On a sharded root engine this
// is the barrier clock: the start of the current synchronization window
// (exact at barriers, which is where root-side code — fault application,
// telemetry sampling — runs); only the single-threaded barrier loop
// advances it.
func (e *Engine) Now() simtime.Time {
	if e.shard != nil && e.dom < 0 {
		return e.shard.now
	}
	return e.Q.Now()
}

// Run dispatches events until the queue drains or the horizon passes. On
// a sharded engine (EnableSharding) it runs the conservative windowed
// parallel loop instead. With a profile attached (Prof) it charges the
// run to the profile; the loop is the same either way.
func (e *Engine) Run(horizon simtime.Time) {
	p := e.Prof
	if p == nil {
		e.run(horizon)
		return
	}
	// The host readings describe the process; they never feed back into
	// simulated time or results.
	start := time.Now() //v2plint:allow wallclock profiling hook: host wall time is telemetry about the run, not simulation state
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	e.run(horizon)
	runtime.ReadMemStats(&ms)
	p.Mallocs += ms.Mallocs - mallocs
	p.Wall += time.Since(start) //v2plint:allow wallclock profiling hook: host wall time is telemetry about the run, not simulation state
	p.SimEnd = e.Now()
}

// run is Run without the host readings.
func (e *Engine) run(horizon simtime.Time) {
	if e.shard != nil {
		e.runSharded(horizon)
		return
	}
	// The free list lives for one Run: a finished World keeps what it
	// reports, not the run's high-water mark of dead packets.
	defer e.pool.Empty()
	n := e.Q.Run(horizon)
	if p := e.Prof; p != nil {
		p.Events += int64(n)
		p.HeapHighWater = max(p.HeapHighWater, e.Q.PeakLen())
	}
}

// BufferUsed returns switch sw's shared-buffer occupancy in bytes at the
// current instant, settled (a telemetry sampling accessor).
func (e *Engine) BufferUsed(sw int32) int { return e.settle(sw, e.Now()) }

// BufferGauge returns the settled shared-buffer occupancy, in bytes, of
// the switch buffer that admitted a packet last — 0 once a run has
// drained; on a sharded engine the fullest of the domains' — and the
// peak occupancy any switch buffer has reached (a telemetry export
// accessor).
func (e *Engine) BufferGauge() (last, peak int64) {
	now, views := e.Now(), []*Engine{e}
	if sh := e.shard; sh != nil && e.dom < 0 && sh.views != nil {
		views = sh.views
	}
	for _, v := range views {
		if v.bufLastSw >= 0 {
			last = max(last, int64(e.settle(v.bufLastSw, now)))
		}
	}
	return last, e.bufPeak
}

// InFlightPackets counts the packets currently in the network on every
// link: queued behind the serializer, being serialized, or in
// propagation flight toward the far end (a packet counts from the
// instant its link accepts it until the instant it is handed to the next
// node). A telemetry sampling accessor; O(links), read-only.
func (e *Engine) InFlightPackets() int {
	n := 0
	for _, l := range e.hostUp {
		if l != nil {
			n += l.inFlight()
		}
	}
	for _, l := range e.hostDown {
		if l != nil {
			n += l.inFlight()
		}
	}
	for _, nbrs := range e.swNbr {
		for _, l := range nbrs {
			n += l.inFlight()
		}
	}
	return n
}

// ConservationGap is the exact packet-conservation identity, as entered
// minus left: every packet that entered the network — tenant packets
// sent by hosts, control packets injected by switches — is delivered,
// dropped (and counted), consumed by a switch, stray at a host, still
// on a link, or held by this engine: inside its gateway or misdelivery
// delay, or for the scheme (Hold). On a serial engine it is 0 at every
// instant. On a sharded engine it leaves out packets in shard mailboxes
// and in the domain views' holds, so there it is exact only at drain.
func (e *Engine) ConservationGap() int64 {
	c := &e.C
	return c.HostSent + c.LearningPkts + c.InvalidationPkts -
		(c.Delivered + c.Drops + c.ConsumedControl + c.StrayControlPkts + int64(e.InFlightPackets()) + e.held)
}

// Gateways returns the gateway host indices senders load-balance over
// (restricted by Config.ActiveGateways).
func (e *Engine) Gateways() []int32 { return e.gateways }

// GatewayFor picks the translation gateway a sender uses for a flow:
// per-flow load balancing across the active gateway instances. It panics
// with a descriptive message on a topology built without gateway hosts
// (rather than a bare divide-by-zero): schemes that resolve through
// gateways cannot run on such a topology.
func (e *Engine) GatewayFor(src netaddr.PIP, flowID uint64) netaddr.PIP {
	if len(e.gateways) == 0 {
		panic("simnet: GatewayFor on a topology with no gateway hosts " +
			"(topology.Config.GatewayPods/GatewaysPerPod are empty; " +
			"use a gateway-free scheme or configure gateways)")
	}
	h := netaddr.FlowHash(src, 0, flowID)
	g := e.gateways[h%uint32(len(e.gateways))]
	if e.gwDown[g] {
		g = e.rerouteGateway(g, h)
	}
	return e.Topo.Hosts[g].PIP
}

// rerouteGateway re-balances a flow whose hash-preferred gateway is
// outaged across the gateways that are still up. When every gateway is
// dark the original pick is kept: the packet travels to the dead
// gateway and is dropped there (FaultDrops), exactly as in a real
// fabric — senders have no oracle for total gateway loss.
func (e *Engine) rerouteGateway(down int32, h uint32) int32 {
	up := 0
	for _, g := range e.gateways {
		if !e.gwDown[g] {
			up++
		}
	}
	if up == 0 {
		return down
	}
	k := int(h % uint32(up))
	for _, g := range e.gateways {
		if !e.gwDown[g] {
			if k == 0 {
				return g
			}
			k--
		}
	}
	return down // unreachable
}

// IsGatewayPIP reports whether the address belongs to any translation
// gateway instance (not just the active subset): switches use this to
// recognize gateway-bound traffic.
func (e *Engine) IsGatewayPIP(p netaddr.PIP) bool {
	h, ok := e.Topo.HostByPIP(p)
	return ok && e.Topo.Hosts[h].Gateway
}

// Packets returns the pool the simulation's own packets are made from:
// transport segments and ACKs, a scheme's control packets. Whoever takes a
// packet from it hands it to HostSend or InjectFromSwitch and forgets it;
// the engine puts it back. Nil — which allocates and never reuses — on a
// sharded engine.
func (e *Engine) Packets() *packet.Pool { return e.pool }

// HostSend emits a tenant packet from a host into the network. It stamps
// the packet, asks the scheme to resolve the outer destination, and
// enqueues the packet on the host's NIC.
func (e *Engine) HostSend(host int32, p *packet.Packet) {
	if sh := e.shard; sh != nil && e.dom < 0 {
		// Sharded root: re-dispatch on the view that owns the host, so
		// the UID stamp, counters and NIC enqueue mutate that shard's
		// state. (Callbacks holding the root engine — the transport
		// layer — land here; callbacks handed a view engine never do.)
		e.viewOf(host).HostSend(host, p)
		return
	}
	e.nextUID++
	p.UID = e.nextUID
	e.C.HostSent++
	if p.SentAt == 0 {
		p.SentAt = e.Now()
	}
	p.SrcPIP = e.Topo.Hosts[host].PIP
	// Stamp the tenant's VNI into the tunnel header (multi-VPC support).
	p.VNI = uint32(e.Net.TenantOf(p.SrcVIP))
	if !e.Scheme.SenderResolve(e, host, p) {
		return // the scheme has handed the packet to Hold or Drop
	}
	e.hostUp[host].enqueue(p)
}

// Resend re-emits a packet from a host without re-stamping SentAt; used
// by hypervisor misdelivery forwarding and by a scheme whose held packet
// came due. The scheme is not consulted: the caller has already set the
// outer header.
func (e *Engine) Resend(host int32, p *packet.Packet) {
	if sh := e.shard; sh != nil && e.dom < 0 {
		e.viewOf(host).Resend(host, p)
		return
	}
	e.hostUp[host].enqueue(p)
}

// InjectFromSwitch emits a scheme-generated control packet from a switch.
func (e *Engine) InjectFromSwitch(sw int32, p *packet.Packet) {
	e.nextUID++
	p.UID = e.nextUID
	switch p.Kind {
	case packet.Learning:
		e.C.LearningPkts++
	case packet.Invalidation:
		e.C.InvalidationPkts++
	}
	e.forwardFromSwitch(sw, p)
}

// switchArrive processes a packet, size bytes on the wire, arriving at a
// switch: count it, hand it to the scheme, then route it onward unless
// consumed. A failed switch processes nothing: packets already in flight
// toward it when it failed die on arrival, before any counter, tap or
// scheme hook runs; so does a packet past its hop budget (MaxHops).
func (e *Engine) switchArrive(sw int32, from topology.NodeRef, p *packet.Packet, size int) {
	if e.swDown[sw] {
		e.C.FaultDrops++
		e.Drop(p)
		return
	}
	p.Hops++
	if p.Hops > MaxHops {
		e.C.LoopDrops++
		e.Drop(p)
		return
	}
	e.C.SwitchPackets[sw]++
	e.C.SwitchBytes[sw] += int64(size)
	if e.Tap != nil {
		e.Tap(topology.SwitchRef(sw), p)
	}
	kind := p.Kind
	if !e.Scheme.SwitchArrive(e, sw, from, p) {
		// A consumed control packet ends here. A tenant packet the scheme
		// has handed to Hold or Drop, and it may be back in the pool
		// already: the engine does not look at it again.
		if kind == packet.Learning || kind == packet.Invalidation {
			e.C.ConsumedControl++
			e.pool.Put(p)
		}
		return
	}
	e.forwardFromSwitch(sw, p)
}

// forwardFromSwitch routes a packet out of a switch toward its outer
// destination: directly to an attached host, or via ECMP toward the
// destination's ToR (or toward the destination switch itself for
// switch-addressed control packets).
func (e *Engine) forwardFromSwitch(sw int32, p *packet.Packet) {
	if hostIdx, ok := e.Topo.HostByPIP(p.DstPIP); ok {
		h := &e.Topo.Hosts[hostIdx]
		if h.ToR == sw {
			e.hostDown[hostIdx].enqueue(p)
			return
		}
		e.ecmpForward(sw, h.ToR, p)
		return
	}
	if dstSw, ok := e.Topo.SwitchByPIP(p.DstPIP); ok {
		if dstSw == sw {
			// Switch-addressed packet that the scheme did not consume.
			e.Drop(p)
			return
		}
		e.ecmpForward(sw, dstSw, p)
		return
	}
	e.Drop(p) // unroutable outer destination
}

// ecmpForward picks one of the equal-cost next hops toward dstSw by
// hashing the flow identity, salted per switch to avoid hash polarization.
// A hash-preferred hop that is downed (failed link or failed next switch)
// is excluded and the flow is re-balanced across the surviving hops
// (Rerouted); a healthy preferred hop keeps its healthy-run choice, so
// failures perturb only the flows that actually crossed them.
func (e *Engine) ecmpForward(sw, dstSw int32, p *packet.Packet) {
	lo, hi := e.Topo.HopRange(sw, dstSw)
	links := e.hopLink[lo:hi]
	if len(links) == 0 {
		e.Drop(p)
		return
	}
	var h uint32
	l := links[0]
	if len(links) > 1 {
		h = netaddr.FlowHash(p.SrcPIP, p.DstPIP, p.FlowID^(uint64(sw)*0x9e3779b1))
		l = links[h%uint32(len(links))]
	}
	if l.down() {
		l = rerouteHop(links, h)
		if l == nil {
			e.C.FaultDrops++
			e.Drop(p)
			return
		}
		e.C.Rerouted++
	}
	l.enqueue(p)
}

// rerouteHop picks the h-th usable link among those toward the equal-cost
// next hops, or nil when every one of them is downed. Allocation-free: two
// passes over the (small) link slice.
func rerouteHop(links []*link, h uint32) *link {
	usable := 0
	for _, l := range links {
		if !l.down() {
			usable++
		}
	}
	if usable == 0 {
		return nil
	}
	k := int(h % uint32(usable))
	for _, l := range links {
		if !l.down() {
			if k == 0 {
				return l
			}
			k--
		}
	}
	return nil // unreachable
}

// hostArrive processes a packet, size bytes on the wire, reaching a host
// NIC: gateway processing for gateway hosts, local delivery or the
// misdelivery path for servers.
func (e *Engine) hostArrive(host int32, p *packet.Packet, size int) {
	if e.Tap != nil {
		e.Tap(topology.HostRef(host), p)
	}
	h := &e.Topo.Hosts[host]
	if h.Gateway {
		e.gatewayProcess(host, p, size)
		return
	}
	switch p.Kind {
	case packet.Data, packet.Ack:
	default:
		e.C.StrayControlPkts++
		e.pool.Put(p)
		return
	}
	if !e.Net.HostHasVM(host, p.DstVIP) {
		e.C.Misdeliveries++
		p.WasMisdelivered = true
		ev := e.getHostEvent()
		ev.p = p
		ev.host = host
		ev.kind = hostEvMisdeliver
		e.held++
		e.Q.AfterFixed(e.Cfg.MisdeliveryDelay, ev)
		return
	}
	e.C.Delivered++
	e.C.DeliveredBytes += int64(size)
	if p.Kind == packet.Data {
		e.C.DataDelivered++
		e.C.DataHopsSum += int64(p.Hops)
		e.C.LatencySumNs += int64(e.Now().Sub(p.SentAt))
	}
	if p.WasMisdelivered {
		e.C.LastMisdelivered = e.Now()
	}
	if e.Handler != nil {
		e.Handler(host, p)
	}
	e.pool.Put(p)
}

// gatewayProcess applies the translation-gateway model to a packet that
// arrived size bytes on the wire: a fixed processing latency, an
// authoritative lookup, and re-emission of the resolved packet through
// the gateway's NIC.
func (e *Engine) gatewayProcess(host int32, p *packet.Packet, size int) {
	if e.gwDown[host] {
		// An outaged gateway is dark: packets already in flight toward it
		// when the outage hit (or sent while every gateway is down) die
		// here, unprocessed and uncounted.
		e.C.FaultDrops++
		e.Drop(p)
		return
	}
	e.C.GatewayPackets++
	e.C.GatewayBytes += int64(size)
	e.C.GatewayPktByHost[host]++
	e.C.GatewayByteByHost[host] += int64(size)
	pip, ok := e.Net.Lookup(p.DstVIP)
	if !ok {
		e.C.GatewayUnknownVIP++
		e.Drop(p)
		return
	}
	ev := e.getHostEvent()
	ev.p = p
	ev.host = host
	ev.kind = hostEvGatewayTx
	ev.pip = pip
	e.held++
	e.Q.AfterFixed(e.Cfg.GatewayDelay, ev)
}

// Hold keeps p off the links until instant at, then hands it back to
// the scheme through Holder.HoldDone with the same node and word: the
// scheme's way to make a packet wait (OnDemand's miss penalty, Bluebird's
// control-plane queue). Until then the packet is the engine's, counted
// as held; word is the scheme's to use (Bluebird's flush generation).
func (e *Engine) Hold(at simtime.Time, node int32, p *packet.Packet, word uint32) {
	ev := e.getHostEvent()
	ev.p = p
	ev.host = node
	ev.kind = hostEvHold
	ev.word = word
	e.held++
	e.Q.AtTimed(at, ev)
}

// Drop is the one way a packet dies: it counts p in Drops and puts it
// back in the pool. The caller counts the kind of drop (FaultDrops,
// LossDrops, a scheme's own counter) and must not touch p afterwards.
func (e *Engine) Drop(p *packet.Packet) {
	e.C.Drops++
	e.pool.Put(p)
}

// hostEvent is a pooled event record (eventq.Timed) for every packet the
// engine holds off the links: hypervisor misdelivery re-forwarding,
// translation-gateway re-emission and a scheme's Hold. Records
// live on the owning engine's freelist and are recycled before the action
// runs, so the pool grows to the concurrent high-water mark and is then
// reused forever — the steady-state path allocates nothing.
type hostEvent struct {
	e    *Engine
	p    *packet.Packet
	pip  netaddr.PIP
	host int32 // the host, or for a Hold the scheme's node
	word uint32
	kind uint8
}

const (
	hostEvMisdeliver uint8 = iota
	hostEvGatewayTx
	hostEvHold
)

// Fire dispatches the record's action and recycles it.
func (ev *hostEvent) Fire() {
	e, p, host, kind, pip, word := ev.e, ev.p, ev.host, ev.kind, ev.pip, ev.word
	ev.p = nil
	e.hostEvFree = append(e.hostEvFree, ev)
	e.held--
	switch kind {
	case hostEvMisdeliver:
		e.Scheme.HostMisdeliver(e, host, p)
	case hostEvGatewayTx:
		p.DstPIP = pip
		p.Resolved = true
		e.hostUp[host].enqueue(p)
	default: // hostEvHold
		e.Scheme.(Holder).HoldDone(e, host, p, word)
	}
}

// getHostEvent pops a pooled record, allocating only to grow the pool.
func (e *Engine) getHostEvent() *hostEvent {
	if n := len(e.hostEvFree); n > 0 {
		ev := e.hostEvFree[n-1]
		e.hostEvFree = e.hostEvFree[:n-1]
		return ev
	}
	return &hostEvent{e: e}
}

// mergeScalars folds another engine's scalar counter deltas into c and
// zeroes them (add-and-zero, so merging is idempotent over barriers).
// The per-switch / per-host slices are not touched: shard views share
// the root's slice headers, and each index is written only by the shard
// that owns the switch or host, so they need no merging at all.
// LastMisdelivered is a timestamp, not a sum: the merged value is the
// max, which equals "last" because simulated time is monotone.
func (c *Counters) mergeScalars(from *Counters) {
	c.GatewayPackets += from.GatewayPackets
	c.GatewayBytes += from.GatewayBytes
	c.HostSent += from.HostSent
	c.Delivered += from.Delivered
	c.DeliveredBytes += from.DeliveredBytes
	c.DataDelivered += from.DataDelivered
	c.DataHopsSum += from.DataHopsSum
	c.LatencySumNs += from.LatencySumNs
	c.Misdeliveries += from.Misdeliveries
	c.Drops += from.Drops
	c.LearningPkts += from.LearningPkts
	c.InvalidationPkts += from.InvalidationPkts
	c.ConsumedControl += from.ConsumedControl
	c.StrayControlPkts += from.StrayControlPkts
	c.GatewayUnknownVIP += from.GatewayUnknownVIP
	c.FaultDrops += from.FaultDrops
	c.LossDrops += from.LossDrops
	c.Rerouted += from.Rerouted
	c.LoopDrops += from.LoopDrops
	if from.LastMisdelivered > c.LastMisdelivered {
		c.LastMisdelivered = from.LastMisdelivered
	}
	sp, sb, sd := from.SwitchPackets, from.SwitchBytes, from.SwitchDrops
	gp, gb := from.GatewayPktByHost, from.GatewayByteByHost
	*from = Counters{SwitchPackets: sp, SwitchBytes: sb, SwitchDrops: sd,
		GatewayPktByHost: gp, GatewayByteByHost: gb}
}

// AvgPacketLatency returns the mean delivery latency over Data packets.
func (c *Counters) AvgPacketLatency() simtime.Duration {
	if c.DataDelivered == 0 {
		return 0
	}
	return simtime.Duration(c.LatencySumNs / c.DataDelivered)
}

// AvgStretch returns the mean number of switches traversed by delivered
// Data packets (the paper's "packet stretch").
func (c *Counters) AvgStretch() float64 {
	if c.DataDelivered == 0 {
		return 0
	}
	return float64(c.DataHopsSum) / float64(c.DataDelivered)
}

// TotalSwitchBytes sums the bytes processed by every switch.
func (c *Counters) TotalSwitchBytes() int64 {
	var n int64
	for _, b := range c.SwitchBytes {
		n += b
	}
	return n
}

// String summarizes the headline counters.
func (c *Counters) String() string {
	return fmt.Sprintf("delivered=%d gatewayPkts=%d misdeliveries=%d drops=%d",
		c.Delivered, c.GatewayPackets, c.Misdeliveries, c.Drops)
}
