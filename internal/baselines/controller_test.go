package baselines

import (
	"math/rand"
	"testing"

	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

func TestControllerInstallsAndHits(t *testing.T) {
	var ctl *Controller
	w := newWorld(t, func(topo *topology.Topology) simnet.Scheme {
		ctl = NewController(topo, 64, 150*simtime.Microsecond)
		return ctl
	})
	src, dst := w.vips[0], w.vips[9]
	// Repeated traffic before the first controller invocation: all via
	// gateway.
	for i := 0; i < 5; i++ {
		p := packet.NewData(1, i, 500, src, dst, 0)
		w.e.HostSend(w.hostOf(src), p)
	}
	w.e.Run(simtime.Time(100 * simtime.Microsecond))
	if w.e.C.GatewayPackets != 5 {
		t.Fatalf("pre-invocation gateway packets = %d, want 5", w.e.C.GatewayPackets)
	}
	// Let the controller run at 150 µs, then send again.
	w.e.Run(simtime.Time(400 * simtime.Microsecond))
	if ctl.Invocations == 0 {
		t.Fatal("controller never invoked")
	}
	srcToR := w.topo.Hosts[w.hostOf(src)].ToR
	if ctl.Installed(srcToR) == 0 {
		t.Fatalf("controller installed nothing at the source ToR")
	}
	p := packet.NewData(1, 6, 500, src, dst, 0)
	w.e.HostSend(w.hostOf(src), p)
	w.e.Run(simtime.Time(600 * simtime.Microsecond))
	if w.e.C.GatewayPackets != 5 {
		t.Fatalf("post-installation packet used the gateway (total %d)", w.e.C.GatewayPackets)
	}
	if ctl.Hits == 0 {
		t.Fatal("no controller-cache hits")
	}
}

func TestControllerExactPathUsedForSmallMatrices(t *testing.T) {
	var ctl *Controller
	w := newWorld(t, func(topo *topology.Topology) simnet.Scheme {
		ctl = NewController(topo, 64, 150*simtime.Microsecond)
		return ctl
	})
	// One pair only -> ToR-restricted exact ILP.
	p := packet.NewData(1, 0, 500, w.vips[0], w.vips[9], 0)
	w.e.HostSend(w.hostOf(w.vips[0]), p)
	w.e.Run(simtime.Time(200 * simtime.Microsecond))
	if ctl.ExactSolves == 0 {
		t.Fatalf("exact solver not used: exact=%d greedy=%d", ctl.ExactSolves, ctl.GreedySolves)
	}
}

func TestControllerGreedyPathForLargeMatrices(t *testing.T) {
	var ctl *Controller
	w := newWorld(t, func(topo *topology.Topology) simnet.Scheme {
		ctl = NewController(topo, 16, 150*simtime.Microsecond)
		return ctl
	})
	// Many distinct pairs exceed the exact limit.
	for i := 0; i < 30; i++ {
		p := packet.NewData(uint64(i+1), 0, 500, w.vips[i], w.vips[60+i], 0)
		w.e.HostSend(w.hostOf(w.vips[i]), p)
	}
	w.e.Run(simtime.Time(300 * simtime.Microsecond))
	if ctl.GreedySolves == 0 {
		t.Fatalf("greedy solver not used: exact=%d greedy=%d", ctl.ExactSolves, ctl.GreedySolves)
	}
}

func TestControllerRespectsCapacity(t *testing.T) {
	// Many destinations from one source rack, capacity 2: 10 demands
	// take the exact ToR-only path, 30 the greedy one over all uplinks.
	for _, tc := range []struct {
		name  string
		dests int
		exact bool
	}{
		{"exact", 10, true},
		{"greedy", 30, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ctl *Controller
			w := newWorld(t, func(topo *topology.Topology) simnet.Scheme {
				ctl = NewController(topo, 2, 150*simtime.Microsecond)
				return ctl
			})
			for i := 0; i < tc.dests; i++ {
				p := packet.NewData(uint64(i+1), 0, 500, w.vips[0], w.vips[30+i], 0)
				w.e.HostSend(w.hostOf(w.vips[0]), p)
			}
			w.e.Run(simtime.Never)
			if got := ctl.ExactSolves > 0 && ctl.GreedySolves == 0; got != tc.exact {
				t.Fatalf("exact=%d greedy=%d, want only the %s path", ctl.ExactSolves, ctl.GreedySolves, tc.name)
			}
			for _, sw := range w.topo.Switches {
				if got := ctl.Installed(sw.Idx); got > 2 {
					t.Fatalf("switch %d has %d installed entries, capacity 2", sw.Idx, got)
				}
			}
			if srcToR := w.topo.Hosts[w.hostOf(w.vips[0])].ToR; tc.exact && ctl.Installed(srcToR) != 2 {
				t.Fatalf("source ToR holds %d entries, want the cap 2", ctl.Installed(srcToR))
			}
		})
	}
}

// TestTopPerToRMatchesBruteForce checks the exact placement against
// every subset of small random instances whose objectives tie and
// include zeros, as count × saving does when serving a demand from its
// ToR saves nothing over the gateway.
func TestTopPerToRMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(13)
		m := rng.Intn(4)
		obj := make([]float64, n)
		tor := make([]int32, n)
		for i := range obj {
			obj[i] = float64(rng.Intn(4) * 250)
			tor[i] = int32(rng.Intn(3))
		}
		best := 0.0
		for set := 0; set < 1<<n; set++ {
			held := make(map[int32]int)
			v := 0.0
			for i := 0; i < n; i++ {
				if set&(1<<i) != 0 {
					held[tor[i]]++
					v += obj[i]
				}
			}
			if v > best && maxHeld(held) <= m {
				best = v
			}
		}
		chosen := topPerToR(obj, tor, m)
		held := make(map[int32]int)
		v := 0.0
		for i, c := range chosen {
			if !c {
				continue
			}
			if obj[i] <= 0 {
				t.Fatalf("trial %d: installed demand %d with objective %v (obj %v)", trial, i, obj[i], obj)
			}
			held[tor[i]]++
			v += obj[i]
		}
		if got := maxHeld(held); got > m {
			t.Fatalf("trial %d: a ToR holds %d entries, cap %d (obj %v tor %v)", trial, got, m, obj, tor)
		}
		if v != best {
			t.Fatalf("trial %d: objective %v, brute-force optimum %v (obj %v tor %v m %d)", trial, v, best, obj, tor, m)
		}
	}
}

func maxHeld(held map[int32]int) int {
	most := 0
	for _, k := range held {
		most = max(most, k)
	}
	return most
}

func TestControllerStaleEntriesEventuallyReplaced(t *testing.T) {
	var ctl *Controller
	w := newWorld(t, func(topo *topology.Topology) simnet.Scheme {
		ctl = NewController(topo, 64, 150*simtime.Microsecond)
		return ctl
	})
	src, dst := w.vips[0], w.vips[9]
	for i := 0; i < 5; i++ {
		w.e.HostSend(w.hostOf(src), packet.NewData(1, i, 500, src, dst, 0))
	}
	w.e.Run(simtime.Time(200 * simtime.Microsecond)) // installed now
	newHost := w.hostOf(w.vips[100])
	if err := w.net.Migrate(dst, newHost); err != nil {
		t.Fatal(err)
	}
	// A packet resolved from the stale installed entry is misdelivered
	// but still arrives via follow-me.
	var deliveredTo int32 = -1
	w.e.Handler = func(h int32, q *packet.Packet) { deliveredTo = h }
	w.e.HostSend(w.hostOf(src), packet.NewData(1, 6, 500, src, dst, 0))
	w.e.Run(simtime.Never)
	if deliveredTo != newHost {
		t.Fatalf("delivered to %d, want %d", deliveredTo, newHost)
	}
}
