package baselines

import (
	"testing"

	"switchv2p/internal/core"
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

func TestHostTableLRU(t *testing.T) {
	tb := newHostTable(2)
	tb.insert(1, 101, 0)
	tb.insert(2, 102, 0)
	if _, _, ok := tb.lookup(1); !ok { // promotes 1 to MRU
		t.Fatal("entry 1 missing")
	}
	if evicted := tb.insert(3, 103, 0); !evicted {
		t.Fatal("full insert must evict")
	}
	if _, _, ok := tb.lookup(2); ok {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if pip, _, ok := tb.lookup(1); !ok || pip != 101 {
		t.Fatal("MRU entry 1 lost")
	}
	if pip, _, ok := tb.lookup(3); !ok || pip != 103 {
		t.Fatal("fresh entry 3 lost")
	}
	// Refresh in place never evicts.
	if evicted := tb.insert(1, 201, 5); evicted {
		t.Fatal("refresh evicted")
	}
	if pip, at, _ := tb.lookup(1); pip != 201 || at != 5 {
		t.Fatalf("refresh not applied: pip=%d at=%d", pip, at)
	}
	if tb.len() != 2 {
		t.Fatalf("len = %d", tb.len())
	}
}

func TestHostTableInvalidateAndFree(t *testing.T) {
	tb := newHostTable(2)
	tb.insert(1, 101, 0)
	tb.insert(2, 102, 0)
	// Targeted invalidation only fires on a matching stale PIP.
	if tb.invalidate(1, 999) {
		t.Fatal("invalidated a fresh entry")
	}
	if !tb.invalidate(1, 101) {
		t.Fatal("stale entry survived invalidation")
	}
	if tb.len() != 1 {
		t.Fatalf("len = %d", tb.len())
	}
	// The freed slot is reused without evicting.
	if evicted := tb.insert(3, 103, 0); evicted {
		t.Fatal("insert into freed slot evicted")
	}
}

func TestHostTableZeroCapacity(t *testing.T) {
	tb := newHostTable(0)
	if evicted := tb.insert(1, 101, 0); evicted {
		t.Fatal("zero-capacity insert evicted")
	}
	if _, _, ok := tb.lookup(1); ok {
		t.Fatal("zero-capacity table cached an entry")
	}
}

func newHostCacheWorld(t testing.TB, opt HostTierOptions) (*world, *HostCache) {
	t.Helper()
	var hc *HostCache
	w := newWorld(t, func(topo *topology.Topology) simnet.Scheme {
		hc = NewHostCache(topo, opt)
		return hc
	})
	return w, hc
}

// TestHostCacheMissInstallHit is the scheme's core behavior: first
// packet detours via a gateway while the mapping installs; after the
// install latency the sender hits and sends direct.
func TestHostCacheMissInstallHit(t *testing.T) {
	w, hc := newHostCacheWorld(t, DefaultHostTierOptions(16))
	src, dst := w.vips[0], w.vips[9]
	w.send(1, 0, src, dst)
	if w.e.C.GatewayPackets != 1 {
		t.Fatalf("first packet gateway detours = %d, want 1", w.e.C.GatewayPackets)
	}
	if pip, ok := hc.HostEntry(w.hostOf(src), dst); !ok {
		t.Fatal("mapping not installed after drain")
	} else if want := w.topo.Hosts[w.hostOf(dst)].PIP; pip != want {
		t.Fatalf("installed pip = %d, want %d", pip, want)
	}
	w.send(1, 1, src, dst)
	if w.e.C.GatewayPackets != 1 {
		t.Fatalf("second packet still detoured: gateway packets = %d", w.e.C.GatewayPackets)
	}
	hs := hc.HostStats()
	if hs.Hits == 0 || hs.Misses == 0 || hs.Installs == 0 {
		t.Fatalf("stats: %+v", hs)
	}
}

// TestHostCacheReceiveSideLearning pins ONCache-style learning from
// incoming traffic: delivering a packet teaches the *destination* host
// the sender's translation, so the reverse direction hits immediately.
func TestHostCacheReceiveSideLearning(t *testing.T) {
	w, hc := newHostCacheWorld(t, DefaultHostTierOptions(16))
	src, dst := w.vips[0], w.vips[9]
	w.send(1, 0, src, dst)
	if pip, ok := hc.HostEntry(w.hostOf(dst), src); !ok {
		t.Fatal("receiver did not learn the sender's translation")
	} else if want := w.topo.Hosts[w.hostOf(src)].PIP; pip != want {
		t.Fatalf("learned pip = %d, want %d", pip, want)
	}
	if hc.HostStats().Learned == 0 {
		t.Fatal("Learned counter not incremented")
	}
	// Reverse packet: no new gateway detour.
	before := w.e.C.GatewayPackets
	w.send(2, 0, dst, src)
	if w.e.C.GatewayPackets != before {
		t.Fatalf("reverse direction detoured: %d -> %d", before, w.e.C.GatewayPackets)
	}
}

// TestHostCacheTTLExpiry: an expired entry is a miss and is dropped.
func TestHostCacheTTLExpiry(t *testing.T) {
	opt := DefaultHostTierOptions(16)
	opt.TTL = 50 * simtime.Microsecond
	w, hc := newHostCacheWorld(t, opt)
	src, dst := w.vips[0], w.vips[9]
	w.send(1, 0, src, dst) // install
	host := w.hostOf(src)
	if _, ok := hc.HostEntry(host, dst); !ok {
		t.Fatal("not installed")
	}
	// Advance simulated time past the TTL with an idle event.
	w.e.Q.After(simtime.Duration(simtime.Millisecond), func() {})
	w.e.Run(simtime.Never)
	before := w.e.C.GatewayPackets
	w.send(1, 1, src, dst)
	if w.e.C.GatewayPackets != before+1 {
		t.Fatal("expired entry did not miss")
	}
	if hc.HostStats().Expired == 0 {
		t.Fatal("Expired counter not incremented")
	}
}

// TestHostCacheInvalidationOnMigration: the old host notifies the sender
// (host-layer invalidation) and follow-me recovers the packet.
func TestHostCacheInvalidationOnMigration(t *testing.T) {
	w, hc := newHostCacheWorld(t, DefaultHostTierOptions(16))
	src, dst := w.vips[0], w.vips[9]
	w.send(1, 0, src, dst) // warm the sender's entry
	srcHost := w.hostOf(src)
	oldHost := w.hostOf(dst)
	newHost := w.hostOf(w.vips[100])
	if err := w.net.Migrate(dst, newHost); err != nil {
		t.Fatal(err)
	}
	w.send(1, 1, src, dst) // stale hit → misdelivery → invalidate + follow-me
	if w.e.C.Misdeliveries == 0 {
		t.Fatal("no misdelivery on stale entry")
	}
	hs := hc.HostStats()
	if hs.InvalidationsSent == 0 || hs.Invalidations == 0 {
		t.Fatalf("host-layer invalidation did not fire: %+v", hs)
	}
	if pip, ok := hc.HostEntry(srcHost, dst); ok && pip == w.topo.Hosts[oldHost].PIP {
		t.Fatal("stale entry survived invalidation")
	}
	if w.e.C.Delivered != 2 {
		t.Fatalf("delivered = %d, want 2", w.e.C.Delivered)
	}
}

// TestHostCacheFlushIsNoOp: switch failures destroy no host state.
func TestHostCacheFlushIsNoOp(t *testing.T) {
	w, hc := newHostCacheWorld(t, DefaultHostTierOptions(16))
	src, dst := w.vips[0], w.vips[9]
	w.send(1, 0, src, dst)
	host := w.hostOf(src)
	n := hc.HostTableLen(host)
	if n == 0 {
		t.Fatal("nothing installed")
	}
	for sw := range w.topo.Switches {
		hc.FlushCache(int32(sw))
	}
	if hc.HostTableLen(host) != n {
		t.Fatal("switch flush destroyed host-resident state")
	}
}

// TestHostToRLayering: the hybrid resolves at the host tier first; host
// misses flow through the embedded SwitchV2P machinery, and a switch
// failure flushes only the switch tier.
func TestHostToRLayering(t *testing.T) {
	var ht *HostToR
	w := newWorld(t, func(topo *topology.Topology) simnet.Scheme {
		opts := core.DefaultOptions(0)
		opts.SizeFor = core.AllocToROnly(topo, 512)
		ht = NewHostToR(topo, opts, DefaultHostTierOptions(16))
		return ht
	})
	src, dst := w.vips[0], w.vips[9]
	w.send(1, 0, src, dst)
	if w.e.C.GatewayPackets != 1 {
		t.Fatalf("first packet gateway detours = %d, want 1", w.e.C.GatewayPackets)
	}
	w.send(1, 1, src, dst)
	if w.e.C.GatewayPackets != 1 {
		t.Fatalf("host tier did not absorb the second packet: %d", w.e.C.GatewayPackets)
	}
	if ht.HostStats().Hits == 0 {
		t.Fatal("no host-tier hits")
	}
	// Flushing the sender's ToR clears switch state but not host tables.
	host := w.hostOf(src)
	n := ht.HostTableLen(host)
	ht.FlushCache(w.topo.Hosts[host].ToR)
	if ht.HostTableLen(host) != n {
		t.Fatal("switch flush reached the host tier")
	}
}

// TestHostSchemesVIPDepartureDuringInstall: an install whose VM vanished
// mid-flight must not install a dangling mapping.
func TestHostCacheDepartureDuringInstall(t *testing.T) {
	w, hc := newHostCacheWorld(t, DefaultHostTierOptions(16))
	src, dst := w.vips[0], w.vips[9]
	p := packet.NewData(1, 0, 1000, src, dst, 0)
	p.FirstSent = true
	w.e.HostSend(w.hostOf(src), p)
	// Remove the VM before the install latency elapses.
	if err := w.net.RemoveVM(dst); err != nil {
		t.Fatal(err)
	}
	w.e.Run(simtime.Never)
	if _, ok := hc.HostEntry(w.hostOf(src), dst); ok {
		t.Fatal("dangling mapping installed for a departed VM")
	}
}
