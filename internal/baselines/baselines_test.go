package baselines

import (
	"testing"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/vnet"
)

type world struct {
	topo *topology.Topology
	net  *vnet.Net
	e    *simnet.Engine
	vips []netaddr.VIP
}

func newWorld(t testing.TB, mk func(topo *topology.Topology) simnet.Scheme) *world {
	t.Helper()
	topo, err := topology.New(topology.FT8())
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.New(topo)
	vips := n.PlaceRoundRobin(256)
	scheme := mk(topo)
	e := simnet.New(topo, n, scheme, simnet.DefaultConfig())
	return &world{topo: topo, net: n, e: e, vips: vips}
}

func (w *world) hostOf(v netaddr.VIP) int32 {
	h, _ := w.net.HostOf(v)
	return h
}

func (w *world) send(flow uint64, seq int, src, dst netaddr.VIP) {
	p := packet.NewData(flow, seq, 1000, src, dst, 0)
	p.FirstSent = seq == 0
	w.e.HostSend(w.hostOf(src), p)
	w.e.Run(simtime.Never)
}

func TestNoCacheAlwaysGateway(t *testing.T) {
	w := newWorld(t, func(*topology.Topology) simnet.Scheme { return NewNoCache() })
	src, dst := w.vips[0], w.vips[9]
	for i := 0; i < 5; i++ {
		w.send(1, i, src, dst)
	}
	if w.e.C.GatewayPackets != 5 {
		t.Fatalf("gateway packets = %d, want 5 (every packet)", w.e.C.GatewayPackets)
	}
	if w.e.C.Delivered != 5 {
		t.Fatalf("delivered = %d", w.e.C.Delivered)
	}
}

func TestNoCacheFollowMeAfterMigration(t *testing.T) {
	w := newWorld(t, func(*topology.Topology) simnet.Scheme { return NewNoCache() })
	src, dst := w.vips[0], w.vips[9]
	oldHost := w.hostOf(dst)
	newHost := w.hostOf(w.vips[100])
	// A stale-resolved packet (as if buffered pre-migration).
	if err := w.net.Migrate(dst, newHost); err != nil {
		t.Fatal(err)
	}
	p := packet.NewData(1, 0, 1000, src, dst, 0)
	p.DstPIP = w.topo.Hosts[oldHost].PIP
	p.Resolved = true
	var deliveredTo int32 = -1
	w.e.Handler = func(h int32, q *packet.Packet) { deliveredTo = h }
	w.e.HostSend(w.hostOf(src), p)
	w.e.Run(simtime.Never)
	if deliveredTo != newHost {
		t.Fatalf("delivered to %d, want %d (follow-me)", deliveredTo, newHost)
	}
	if w.e.C.Misdeliveries != 1 {
		t.Fatalf("misdeliveries = %d", w.e.C.Misdeliveries)
	}
	// Follow-me goes straight to the new host: no gateway involved.
	if w.e.C.GatewayPackets != 0 {
		t.Fatalf("gateway packets = %d, want 0", w.e.C.GatewayPackets)
	}
}

func TestLocalLearningLearnsOnGatewayPath(t *testing.T) {
	var ll *LocalLearning
	w := newWorld(t, func(topo *topology.Topology) simnet.Scheme {
		ll = NewLocalLearning(topo, 1024)
		return ll
	})
	src, dst := w.vips[0], w.vips[9]
	w.send(1, 0, src, dst)
	if w.e.C.GatewayPackets != 1 {
		t.Fatalf("first packet gateway packets = %d", w.e.C.GatewayPackets)
	}
	// Every switch on the gateway->dst path learned dst; the gateway ToR
	// is on the src->gateway path too, so the second packet hits there.
	w.send(1, 1, src, dst)
	if w.e.C.GatewayPackets != 1 {
		t.Fatalf("second packet reached gateway (total %d)", w.e.C.GatewayPackets)
	}
	if ll.Hits == 0 {
		t.Fatal("no hits recorded")
	}
}

func TestLocalLearningNoSourceLearning(t *testing.T) {
	var ll *LocalLearning
	w := newWorld(t, func(topo *topology.Topology) simnet.Scheme {
		ll = NewLocalLearning(topo, 1024)
		return ll
	})
	src, dst := w.vips[0], w.vips[9]
	w.send(1, 0, src, dst)
	// The strawman never learns the SENDER's mapping anywhere (it only
	// destination-learns), so src must be absent from every cache unless
	// src itself was a resolved destination — it wasn't.
	for _, sw := range w.topo.Switches {
		if _, ok := ll.Cache(sw.Idx).Peek(src); ok {
			t.Fatalf("switch %d learned the sender mapping", sw.Idx)
		}
	}
}

func TestGwCacheOnlyGatewayToRsCache(t *testing.T) {
	var gc *GwCache
	w := newWorld(t, func(topo *topology.Topology) simnet.Scheme {
		gc = NewGwCache(topo, 4096)
		return gc
	})
	src, dst := w.vips[0], w.vips[9]
	w.send(1, 0, src, dst)
	w.send(1, 1, src, dst)
	if w.e.C.GatewayPackets != 1 {
		t.Fatalf("gateway packets = %d, want 1 (second hits gw ToR cache)", w.e.C.GatewayPackets)
	}
	for _, sw := range w.topo.Switches {
		isGwToR := sw.Role == topology.RoleGatewayToR
		if got := gc.Cache(sw.Idx).Len() > 0; got != isGwToR {
			t.Fatalf("switch %d (%v) caching=%v, want %v", sw.Idx, sw.Role, got, isGwToR)
		}
	}
	// Per-switch share: 4096 lines over 4 gateway ToRs.
	for _, sw := range w.topo.Switches {
		if sw.Role == topology.RoleGatewayToR {
			if got := gc.Cache(sw.Idx).Len(); got != 1024 {
				t.Fatalf("gateway ToR cache = %d lines, want 1024", got)
			}
		}
	}
	// No learning packets or invalidations in GwCache.
	if w.e.C.LearningPkts != 0 || w.e.C.InvalidationPkts != 0 {
		t.Fatalf("GwCache generated control packets: %+v", w.e.C)
	}
}

func TestBluebirdSlowPathThenFastPath(t *testing.T) {
	var bb *Bluebird
	w := newWorld(t, func(topo *topology.Topology) simnet.Scheme {
		bb = NewBluebird(topo, 1024, DefaultBluebirdParams())
		return bb
	})
	src, dst := w.vips[0], w.vips[9]
	// First packet at t=0; run only to 1 ms so the 2 ms cache insertion
	// has NOT completed yet.
	w.e.HostSend(w.hostOf(src), packet.NewData(1, 0, 1000, src, dst, 0))
	w.e.Run(simtime.Time(1 * simtime.Millisecond))
	if bb.Misses != 1 || bb.CPForwarded != 1 {
		t.Fatalf("misses=%d cpForwarded=%d, want 1/1", bb.Misses, bb.CPForwarded)
	}
	if w.e.C.GatewayPackets != 0 {
		t.Fatalf("Bluebird used a gateway (%d packets)", w.e.C.GatewayPackets)
	}
	if w.e.C.Delivered != 1 {
		t.Fatalf("delivered = %d", w.e.C.Delivered)
	}
	// The slow path costs at least the CP forwarding latency.
	if lat := w.e.C.AvgPacketLatency(); lat < bb.params.CPForwardLatency {
		t.Fatalf("latency %v below CP forwarding latency", lat)
	}
	// Before the 2 ms insertion completes, another packet still misses.
	w.e.HostSend(w.hostOf(src), packet.NewData(1, 1, 1000, src, dst, 0))
	w.e.Run(simtime.Time(1500 * simtime.Microsecond))
	if bb.Misses != 2 {
		t.Fatalf("second packet within insertion window: misses=%d, want 2", bb.Misses)
	}
	// After the insertion delay, packets hit the route cache.
	w.e.Run(simtime.Never)
	w.send(1, 2, src, dst)
	if bb.Hits != 1 {
		t.Fatalf("post-insertion hits=%d, want 1", bb.Hits)
	}
}

func TestBluebirdCPQueueDrops(t *testing.T) {
	var bb *Bluebird
	w := newWorld(t, func(topo *topology.Topology) simnet.Scheme {
		params := DefaultBluebirdParams()
		params.CPQueueBytes = 2000 // fits one packet only
		bb = NewBluebird(topo, 1024, params)
		return bb
	})
	src, dst := w.vips[0], w.vips[9]
	// Burst of misses into the tiny CP queue.
	for i := 0; i < 10; i++ {
		p := packet.NewData(1, i, 1000, src, dst, 0)
		w.e.HostSend(w.hostOf(src), p)
	}
	w.e.Run(simtime.Never)
	if bb.CPDrops == 0 {
		t.Fatal("expected CP queue drops")
	}
	if w.e.C.Delivered == 0 {
		t.Fatal("expected some deliveries")
	}
	// The CP's drops are in the engine's books, and a tenant packet parked
	// in the CP is not a consumed control packet.
	c := &w.e.C
	if c.Drops != bb.CPDrops || c.Delivered+c.Drops != c.HostSent || c.ConsumedControl != 0 {
		t.Fatalf("sent %d = delivered %d + drops %d does not hold, or CP drops %d are not the drops, or consumed control %d != 0",
			c.HostSent, c.Delivered, c.Drops, bb.CPDrops, c.ConsumedControl)
	}
}

// TestBluebirdFlushLosesQueuedWork: a flushed control plane loses the
// packets it had queued — they are dropped and counted, not delivered —
// and its queue occupancy restarts at zero instead of being driven
// negative by the lost work's completions.
func TestBluebirdFlushLosesQueuedWork(t *testing.T) {
	var bb *Bluebird
	w := newWorld(t, func(topo *topology.Topology) simnet.Scheme {
		bb = NewBluebird(topo, 1024, DefaultBluebirdParams())
		return bb
	})
	src, dst := w.vips[0], w.vips[9]
	tor := w.topo.Hosts[w.hostOf(src)].ToR
	for i := 0; i < 5; i++ {
		w.e.HostSend(w.hostOf(src), packet.NewData(1, i, 1000, src, dst, 0))
	}
	w.e.Run(simtime.Time(3 * simtime.Microsecond)) // all five are in the CP queue
	if bb.Misses != 5 || bb.cp[tor].queuedBytes <= 0 {
		t.Fatalf("before the flush: misses %d, queued %d B", bb.Misses, bb.cp[tor].queuedBytes)
	}
	bb.FlushCache(tor)
	// One more miss after the flush: the new control plane's own work.
	w.e.HostSend(w.hostOf(src), packet.NewData(1, 5, 1000, src, dst, 0))
	for w.e.Q.Step() {
		if q := bb.cp[tor].queuedBytes; q < 0 {
			t.Fatalf("t=%d: CP queue occupancy %d B", w.e.Now(), q)
		}
	}
	c := &w.e.C
	if bb.CPDrops != 5 || c.Drops != 5 || bb.CPForwarded != 1 || c.Delivered != 1 || bb.cp[tor].queuedBytes != 0 {
		t.Fatalf("after the drain: CP drops %d, drops %d, CP forwarded %d, delivered %d, queued %d B; want 5, 5, 1, 1, 0",
			bb.CPDrops, c.Drops, bb.CPForwarded, c.Delivered, bb.cp[tor].queuedBytes)
	}
}

func TestOnDemandMissPenaltyThenDirect(t *testing.T) {
	var od *OnDemand
	w := newWorld(t, func(topo *topology.Topology) simnet.Scheme {
		od = NewOnDemand(topo, 40*simtime.Microsecond)
		return od
	})
	src, dst := w.vips[0], w.vips[9]
	w.send(1, 0, src, dst)
	// The data packet never detours via a gateway: the miss stalls it at
	// the host for the 40 µs rule-installation penalty instead.
	if w.e.C.GatewayPackets != 0 || od.HostMisses != 1 {
		t.Fatalf("first packet: gw=%d misses=%d", w.e.C.GatewayPackets, od.HostMisses)
	}
	if lat := w.e.C.AvgPacketLatency(); lat < 40*simtime.Microsecond {
		t.Fatalf("first packet latency %v below the miss penalty", lat)
	}
	// The run drained the queue, so the install (at +40µs) completed.
	w.send(1, 1, src, dst)
	if w.e.C.GatewayPackets != 0 || od.HostHits != 1 {
		t.Fatalf("second packet: gw=%d hits=%d", w.e.C.GatewayPackets, od.HostHits)
	}
}

// TestOnDemandCountsAMissOnADepartedVM: a packet whose destination VM
// leaves during the miss penalty is dropped at the host and counted, so
// conservation holds (FuzzSpecValidate found it uncounted under churn).
func TestOnDemandCountsAMissOnADepartedVM(t *testing.T) {
	w := newWorld(t, func(topo *topology.Topology) simnet.Scheme { return NewOnDemand(topo, 40*simtime.Microsecond) })
	src, dst := w.vips[0], w.vips[9]
	w.e.HostSend(w.hostOf(src), packet.NewData(1, 0, 1000, src, dst, 0))
	if err := w.net.RemoveVM(dst); err != nil {
		t.Fatal(err)
	}
	w.e.Run(simtime.Never)
	if c := &w.e.C; c.Drops != 1 || c.Delivered != 0 || w.e.ConservationGap() != 0 {
		t.Fatalf("drops %d, delivered %d, conservation gap %d; want 1, 0, 0", c.Drops, c.Delivered, w.e.ConservationGap())
	}
}

func TestOnDemandStaysStaleAfterMigration(t *testing.T) {
	var od *OnDemand
	w := newWorld(t, func(topo *topology.Topology) simnet.Scheme {
		od = NewOnDemand(topo, 40*simtime.Microsecond)
		return od
	})
	src, dst := w.vips[0], w.vips[9]
	newHost := w.hostOf(w.vips[100])
	w.send(1, 0, src, dst) // warm host cache
	if err := w.net.Migrate(dst, newHost); err != nil {
		t.Fatal(err)
	}
	var deliveredTo int32 = -1
	w.e.Handler = func(h int32, q *packet.Packet) { deliveredTo = h }
	// Host cache is stale: every subsequent packet is misdelivered and
	// follow-me'd, matching the Table 4 OnDemand behavior.
	for i := 1; i <= 3; i++ {
		w.send(1, i, src, dst)
	}
	if deliveredTo != newHost {
		t.Fatalf("delivered to %d, want %d", deliveredTo, newHost)
	}
	if w.e.C.Misdeliveries != 3 {
		t.Fatalf("misdeliveries = %d, want 3 (stale host cache)", w.e.C.Misdeliveries)
	}
}

func TestDirectNeverGateway(t *testing.T) {
	w := newWorld(t, func(*topology.Topology) simnet.Scheme { return NewDirect() })
	src, dst := w.vips[0], w.vips[9]
	for i := 0; i < 5; i++ {
		w.send(1, i, src, dst)
	}
	if w.e.C.GatewayPackets != 0 {
		t.Fatalf("gateway packets = %d, want 0", w.e.C.GatewayPackets)
	}
	if w.e.C.Delivered != 5 {
		t.Fatalf("delivered = %d", w.e.C.Delivered)
	}
	// Direct latency: no gateway detour, just the path.
	if lat := w.e.C.AvgPacketLatency(); lat > 15*simtime.Microsecond {
		t.Fatalf("Direct latency = %v, want < 15µs", lat)
	}
}

func TestLatencyOrdering(t *testing.T) {
	// Sanity: for a fresh flow, Direct < SwitchV2P-ish/NoCache; and
	// NoCache pays the gateway detour.
	run := func(mk func(topo *topology.Topology) simnet.Scheme) simtime.Duration {
		w := newWorld(t, mk)
		w.send(1, 0, w.vips[0], w.vips[9])
		return w.e.C.AvgPacketLatency()
	}
	direct := run(func(*topology.Topology) simnet.Scheme { return NewDirect() })
	nocache := run(func(*topology.Topology) simnet.Scheme { return NewNoCache() })
	if direct >= nocache {
		t.Fatalf("Direct (%v) not faster than NoCache (%v)", direct, nocache)
	}
	if nocache < 40*simtime.Microsecond {
		t.Fatalf("NoCache latency %v below gateway processing time", nocache)
	}
}
