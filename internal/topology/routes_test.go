package topology

// The interned route tables and the dense address table against
// references that share no code with them: a per-pair BFS written the
// naive way, and the Switches / Hosts slices themselves.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"switchv2p/internal/netaddr"
)

// refAdjacency rebuilds each switch's neighbor list from the exported
// edge list, in edge order — the "adjacency order" NextHops promises.
func refAdjacency(t *Topology) [][]int32 {
	adj := make([][]int32, len(t.Switches))
	for _, e := range t.Edges {
		if e.A.Kind == KindSwitch && e.B.Kind == KindSwitch {
			adj[e.A.Idx] = append(adj[e.A.Idx], e.B.Idx)
			adj[e.B.Idx] = append(adj[e.B.Idx], e.A.Idx)
		}
	}
	return adj
}

// refDistances is a plain BFS from dst over that adjacency.
func refDistances(adj [][]int32, dst int32) []int {
	dist := make([]int, len(adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	for queue := []int32{dst}; len(queue) > 0; queue = queue[1:] {
		for _, v := range adj[queue[0]] {
			if dist[v] < 0 {
				dist[v] = dist[queue[0]] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// routeConfigs are the fabrics the experiments build: both Table 3
// topologies, every pod count of the Fig. 10 sweep (1 is the one-pod
// fabric), and a fabric whose cores reach only one spine per pod, so some
// switch pairs are six hops apart.
func routeConfigs(t *testing.T) []namedConfig {
	cfgs := []namedConfig{{"FT8", FT8()}, {"FT16", FT16()}}
	for _, pods := range []int{1, 2, 4, 8, 16, 32} {
		cfg, err := ScaledFT8(pods)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, namedConfig{fmt.Sprintf("ScaledFT8-%d", pods), cfg})
	}
	thin := FT8()
	thin.Cores = 1
	return append(cfgs, namedConfig{"one-core", thin})
}

type namedConfig struct {
	name string
	cfg  Config
}

func TestRoutesMatchBFS(t *testing.T) {
	for _, c := range routeConfigs(t) {
		t.Run(c.name, func(t *testing.T) {
			topo, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRoutes(t, topo)
		})
	}
}

// checkRoutes compares NextHops, HopRange and SwitchDistance with the
// naive BFS for every (src, dst) pair.
func checkRoutes(t testing.TB, topo *Topology) {
	t.Helper()
	n := int32(len(topo.Switches))
	adj := refAdjacency(topo)
	var want []int32
	for dst := int32(0); dst < n; dst++ {
		dist := refDistances(adj, dst)
		for src := int32(0); src < n; src++ {
			want = want[:0]
			for _, v := range adj[src] {
				if src != dst && dist[v] == dist[src]-1 {
					want = append(want, v)
				}
			}
			got := topo.NextHops(src, dst)
			if !slices.Equal(got, want) {
				t.Fatalf("NextHops(%d, %d) = %v, BFS says %v", src, dst, got, want)
			}
			if lo, hi := topo.HopRange(src, dst); !slices.Equal(topo.hops[lo:hi], want) {
				t.Fatalf("HopRange(%d, %d) = [%d,%d) holds %v, BFS says %v", src, dst, lo, hi, topo.hops[lo:hi], want)
			}
			if d := topo.SwitchDistance(src, dst); d != dist[src] {
				t.Fatalf("SwitchDistance(%d, %d) = %d, BFS says %d", src, dst, d, dist[src])
			}
		}
	}
}

// TestHopSlotsPartitionBySource: every slot belongs to exactly one source
// switch, leads to one of that switch's neighbors, and every route of the
// source stays inside the source's slots — what lets an engine wire one
// link per slot by walking sources instead of all n² pairs.
func TestHopSlotsPartitionBySource(t *testing.T) {
	for _, c := range routeConfigs(t) {
		topo, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkHopSlots(t, c.name, topo)
	}
}

func checkHopSlots(t testing.TB, name string, topo *Topology) {
	t.Helper()
	next, srcStart := topo.HopSlots()
	n := int32(len(topo.Switches))
	adj := refAdjacency(topo)
	if len(srcStart) != int(n)+1 || srcStart[0] != 0 || int(srcStart[n]) != len(next) {
		t.Fatalf("%s: srcStart does not cover the %d slots: len %d, first %d, last %d",
			name, len(next), len(srcStart), srcStart[0], srcStart[n])
	}
	for src := int32(0); src < n; src++ {
		lo, hi := srcStart[src], srcStart[src+1]
		for i := lo; i < hi; i++ {
			if !slices.Contains(adj[src], next[i]) {
				t.Fatalf("%s: slot %d of switch %d leads to non-neighbor %d", name, i, src, next[i])
			}
		}
		for dst := int32(0); dst < n; dst++ {
			if a, b := topo.HopRange(src, dst); a != b && (a < lo || b > hi) {
				t.Fatalf("%s: HopRange(%d, %d) = [%d,%d) leaves the source's slots [%d,%d)", name, src, dst, a, b, lo, hi)
			}
		}
	}
}

// FuzzRoutesMatchBFS builds every small fabric a Config can describe —
// Pods 1–6, RacksPerPod 1–4, SpinesPerPod 1–5, Cores 1–9 — and holds its
// routes to the naive BFS and its hop slots to the partition by source.
// The routes are filled from one pod's BFS through the pod symmetry, so
// the seeds cover what that argument has to survive: one, two and three
// pods, fewer cores than spines per pod (spines without an uplink), and a
// core count that is no multiple of the spine count (spines with unequal
// uplinks).
func FuzzRoutesMatchBFS(f *testing.F) {
	// Pods, RacksPerPod, SpinesPerPod, Cores; the target adds 1 to each.
	for _, s := range [][4]uint8{
		{1, 2, 2, 2}, // one pod
		{2, 2, 3, 3}, // two pods
		{3, 2, 4, 2}, // three pods, fewer cores than spines
		{3, 3, 3, 7}, // cores not a multiple of spines
		{6, 4, 5, 9}, // the largest fabric
		{4, 1, 1, 1}, // one of everything per pod
	} {
		f.Add(s[0]-1, s[1]-1, s[2]-1, s[3]-1)
	}
	f.Fuzz(func(t *testing.T, pods, racks, spines, cores uint8) {
		cfg := FT8()
		cfg.Pods = 1 + int(pods)%6
		cfg.RacksPerPod = 1 + int(racks)%4
		cfg.SpinesPerPod = 1 + int(spines)%5
		cfg.Cores = 1 + int(cores)%9
		cfg.ServersPerRack = 1
		cfg.GatewayPods, cfg.GatewaysPerPod = []int{cfg.Pods - 1}, 1
		topo, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%d pods × (%d racks, %d spines), %d cores", cfg.Pods, cfg.RacksPerPod, cfg.SpinesPerPod, cfg.Cores)
		checkRoutes(t, topo)
		checkHopSlots(t, name, topo)
	})
}

func TestPIPTableRoundTrip(t *testing.T) {
	for _, c := range routeConfigs(t) {
		name := c.name
		topo, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range topo.Switches {
			if i, ok := topo.SwitchByPIP(s.PIP); !ok || i != s.Idx {
				t.Fatalf("%s: SwitchByPIP(%v) = %d,%v, want %d", name, s.PIP, i, ok, s.Idx)
			}
			if i, ok := topo.HostByPIP(s.PIP); ok {
				t.Fatalf("%s: HostByPIP(switch %v) = %d, want a miss", name, s.PIP, i)
			}
		}
		for _, h := range topo.Hosts {
			if i, ok := topo.HostByPIP(h.PIP); !ok || i != h.Idx {
				t.Fatalf("%s: HostByPIP(%v) = %d,%v, want %d", name, h.PIP, i, ok, h.Idx)
			}
			if i, ok := topo.SwitchByPIP(h.PIP); ok {
				t.Fatalf("%s: SwitchByPIP(host %v) = %d, want a miss", name, h.PIP, i)
			}
		}
		first := topo.Switches[0].PIP
		last := first + netaddr.PIP(len(topo.Switches)+len(topo.Hosts)) - 1
		for _, p := range []netaddr.PIP{0, first - 1, last + 1, ^netaddr.PIP(0)} {
			if i, ok := topo.HostByPIP(p); ok || i != 0 {
				t.Fatalf("%s: HostByPIP(foreign %v) = %d,%v, want 0,false", name, p, i, ok)
			}
			if i, ok := topo.SwitchByPIP(p); ok || i != 0 {
				t.Fatalf("%s: SwitchByPIP(foreign %v) = %d,%v, want 0,false", name, p, i, ok)
			}
		}
	}
}

// TestNewFT16AllocBudget keeps per-pair heap objects and per-pair tables
// from returning: with one slice per (src, dst) pair New(FT16()) made
// 1 422 504 allocations, and with an n × n table of group ids it allocated
// 8.33 MB; with rows per destination class it makes under 8 000 allocations
// of about 4.7 MB, most of it the edge and host lists.
func TestNewFT16AllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := New(FT16()); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	if allocs > 20000 {
		t.Fatalf("New(FT16()) made %.0f allocations, budget 20000", allocs)
	}
	// AllocsPerRun calls the function twice: once to warm up, once measured.
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 2 / (1 << 20); mb > 5 {
		t.Fatalf("New(FT16()) allocated %.2f MB, budget 5 MB", mb)
	}
}

func BenchmarkNewFT16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(FT16()); err != nil {
			b.Fatal(err)
		}
	}
}

// hopSink keeps BenchmarkHopRange's reads from being optimised away.
var hopSink int32

// BenchmarkHopRange reads the routes of 64 Ki random (src, dst) pairs in
// turn, the access pattern of ECMP decisions spread over a fabric.
func BenchmarkHopRange(b *testing.B) {
	for _, c := range []namedConfig{{"FT8", FT8()}, {"FT16", FT16()}} {
		b.Run(c.name, func(b *testing.B) {
			topo, err := New(c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			n := int32(len(topo.Switches))
			pairs := make([][2]int32, 1<<16)
			for i := range pairs {
				pairs[i] = [2]int32{rng.Int31n(n), rng.Int31n(n)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i&(len(pairs)-1)]
				lo, hi := topo.HopRange(p[0], p[1])
				hopSink += hi - lo
			}
		})
	}
}
