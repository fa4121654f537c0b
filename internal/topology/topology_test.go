package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustFT8(t testing.TB) *Topology {
	t.Helper()
	topo, err := New(FT8())
	if err != nil {
		t.Fatalf("New(FT8): %v", err)
	}
	return topo
}

func TestFT8Counts(t *testing.T) {
	topo := mustFT8(t)
	// Table 3: 8 pods, 32 ToRs, 16 cores, 40 gateways, 128 servers.
	nTor, nSpine, nCore := 0, 0, 0
	nGwTor, nGwSpine := 0, 0
	for _, s := range topo.Switches {
		switch s.Role {
		case RoleToR:
			nTor++
		case RoleGatewayToR:
			nTor++
			nGwTor++
		case RoleSpine:
			nSpine++
		case RoleGatewaySpine:
			nSpine++
			nGwSpine++
		case RoleCore:
			nCore++
		}
	}
	if nTor != 32 || nSpine != 32 || nCore != 16 {
		t.Fatalf("switch counts ToR=%d spine=%d core=%d, want 32/32/16", nTor, nSpine, nCore)
	}
	if len(topo.Switches) != 80 {
		t.Fatalf("total switches = %d, want 80 (the paper's '80-switch topology')", len(topo.Switches))
	}
	if nGwTor != 4 || nGwSpine != 16 {
		t.Fatalf("gateway switch counts gwToR=%d gwSpine=%d, want 4/16", nGwTor, nGwSpine)
	}
	if got := len(topo.Gateways()); got != 40 {
		t.Fatalf("gateways = %d, want 40", got)
	}
	if got := len(topo.Servers()); got != 128 {
		t.Fatalf("servers = %d, want 128", got)
	}
}

func TestFT16Counts(t *testing.T) {
	topo, err := New(FT16())
	if err != nil {
		t.Fatalf("New(FT16): %v", err)
	}
	nTor := len(topo.ToRs())
	if nTor != 400 {
		t.Fatalf("ToRs = %d, want 400", nTor)
	}
	if got := len(topo.Gateways()); got != 250 {
		t.Fatalf("gateways = %d, want 250", got)
	}
	if got := len(topo.Servers()); got != 12800 {
		t.Fatalf("servers = %d, want 12800", got)
	}
}

func TestUniquePIPs(t *testing.T) {
	topo := mustFT8(t)
	seen := make(map[uint32]bool)
	for _, s := range topo.Switches {
		if seen[uint32(s.PIP)] {
			t.Fatalf("duplicate PIP %v", s.PIP)
		}
		seen[uint32(s.PIP)] = true
	}
	for _, h := range topo.Hosts {
		if seen[uint32(h.PIP)] {
			t.Fatalf("duplicate PIP %v", h.PIP)
		}
		seen[uint32(h.PIP)] = true
	}
}

func TestPIPLookups(t *testing.T) {
	topo := mustFT8(t)
	for _, s := range topo.Switches {
		if i, ok := topo.SwitchByPIP(s.PIP); !ok || i != s.Idx {
			t.Fatalf("SwitchByPIP(%v) = %d,%v", s.PIP, i, ok)
		}
	}
	for _, h := range topo.Hosts {
		if i, ok := topo.HostByPIP(h.PIP); !ok || i != h.Idx {
			t.Fatalf("HostByPIP(%v) = %d,%v", h.PIP, i, ok)
		}
	}
	if _, ok := topo.HostByPIP(0); ok {
		t.Fatalf("HostByPIP(0) should miss")
	}
}

func TestGatewayPlacement(t *testing.T) {
	topo := mustFT8(t)
	for _, g := range topo.Gateways() {
		h := topo.Hosts[g]
		tor := topo.Switches[h.ToR]
		if tor.Role != RoleGatewayToR {
			t.Fatalf("gateway %d attached to %v, want gateway-tor", g, tor.Role)
		}
		if h.Rack != topo.Cfg.RacksPerPod-1 {
			t.Fatalf("gateway %d in rack %d, want last rack", g, h.Rack)
		}
	}
	// Gateway pods: every spine in a gateway pod is a gateway spine.
	gwPods := map[int]bool{0: true, 2: true, 5: true, 7: true}
	for _, s := range topo.Switches {
		if s.Role.IsSpine() {
			if gwPods[s.Pod] != (s.Role == RoleGatewaySpine) {
				t.Fatalf("spine %d pod %d role %v inconsistent with gateway pods", s.Idx, s.Pod, s.Role)
			}
		}
	}
}

func TestHostsAttachedToCorrectToR(t *testing.T) {
	topo := mustFT8(t)
	for _, h := range topo.Hosts {
		tor := topo.Switches[h.ToR]
		if !tor.Role.IsToR() {
			t.Fatalf("host %d attached to non-ToR %v", h.Idx, tor.Role)
		}
		if tor.Pod != h.Pod || tor.Rack != h.Rack {
			t.Fatalf("host %d pod/rack %d/%d but ToR pod/rack %d/%d", h.Idx, h.Pod, h.Rack, tor.Pod, tor.Rack)
		}
		found := false
		for _, hh := range topo.HostsAtToR(h.ToR) {
			if hh == h.Idx {
				found = true
			}
		}
		if !found {
			t.Fatalf("host %d missing from HostsAtToR(%d)", h.Idx, h.ToR)
		}
	}
}

func TestBaseRTTSixHops(t *testing.T) {
	topo := mustFT8(t)
	// Cross-pod server-to-server path: ToR->spine->core->spine->ToR = 4
	// switch-switch hops; with the 2 host links that's 6 links each way,
	// giving the paper's 12 µs base RTT at 1 µs per link.
	var torPod0, torPod1 int32 = -1, -1
	for _, s := range topo.Switches {
		if s.Role == RoleToR && s.Pod == 0 && torPod0 < 0 {
			torPod0 = s.Idx
		}
		if s.Role == RoleToR && s.Pod == 1 && torPod1 < 0 {
			torPod1 = s.Idx
		}
	}
	if d := topo.SwitchDistance(torPod0, torPod1); d != 4 {
		t.Fatalf("cross-pod ToR distance = %d, want 4", d)
	}
	// Same-pod ToRs are 2 apart (via a spine).
	var torPod0b int32 = -1
	for _, s := range topo.Switches {
		if s.Role == RoleToR && s.Pod == 0 && s.Idx != torPod0 {
			torPod0b = s.Idx
			break
		}
	}
	if d := topo.SwitchDistance(torPod0, torPod0b); d != 2 {
		t.Fatalf("same-pod ToR distance = %d, want 2", d)
	}
}

func TestNextHopsLeadToDestination(t *testing.T) {
	topo := mustFT8(t)
	// Property: from any switch, greedily following any next hop strictly
	// decreases the distance and terminates at the destination.
	f := func(a, b uint8) bool {
		src := int32(int(a) % len(topo.Switches))
		dst := int32(int(b) % len(topo.Switches))
		cur := src
		for steps := 0; cur != dst; steps++ {
			if steps > 10 {
				return false
			}
			hops := topo.NextHops(cur, dst)
			if len(hops) == 0 {
				return false
			}
			// All candidates must make progress.
			d := topo.SwitchDistance(cur, dst)
			for _, h := range hops {
				if topo.SwitchDistance(h, dst) != d-1 {
					return false
				}
			}
			cur = hops[0]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestECMPMultipath(t *testing.T) {
	topo := mustFT8(t)
	// A ToR should have SpinesPerPod equal-cost next hops toward a ToR in
	// another pod.
	var torPod0, torPod1 int32 = -1, -1
	for _, s := range topo.Switches {
		if s.Role == RoleToR && s.Pod == 0 && torPod0 < 0 {
			torPod0 = s.Idx
		}
		if s.Role == RoleToR && s.Pod == 1 && torPod1 < 0 {
			torPod1 = s.Idx
		}
	}
	if got := len(topo.NextHops(torPod0, torPod1)); got != topo.Cfg.SpinesPerPod {
		t.Fatalf("ECMP width at ToR = %d, want %d", got, topo.Cfg.SpinesPerPod)
	}
}

func TestScaledFT8(t *testing.T) {
	for _, pods := range []int{1, 2, 4, 8, 16, 32} {
		cfg, err := ScaledFT8(pods)
		if err != nil {
			t.Fatalf("ScaledFT8(%d): %v", pods, err)
		}
		topo, err := New(cfg)
		if err != nil {
			t.Fatalf("New(ScaledFT8(%d)): %v", pods, err)
		}
		if got := len(topo.Servers()); got != 128 {
			t.Fatalf("ScaledFT8(%d) servers = %d, want 128", pods, got)
		}
		if got := len(topo.Gateways()); got != 40 {
			t.Fatalf("ScaledFT8(%d) gateways = %d, want 40", pods, got)
		}
	}
	if _, err := ScaledFT8(3); err == nil {
		t.Fatalf("ScaledFT8(3) should fail (does not divide)")
	}
}

func TestValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
		want string // substring of the error
	}{
		{"zero pods", func(c *Config) { c.Pods = 0 }, "non-positive dimension"},
		{"gateway pod out of range", func(c *Config) { c.GatewayPods = []int{99} }, "gateway pod 99 out of range"},
		{"zero link speed", func(c *Config) { c.HostLinkBps = 0 }, "non-positive link speed"},
		{"fewer counts than pods", func(c *Config) {
			c.GatewayPods, c.GatewayCounts = []int{0, 2}, []int{5}
		}, "1 gateway counts for 2 gateway pods"},
		{"more counts than pods", func(c *Config) {
			c.GatewayPods, c.GatewayCounts = []int{0}, []int{5, 7}
		}, "2 gateway counts for 1 gateway pods"},
		{"duplicated gateway pod", func(c *Config) {
			c.GatewayPods, c.GatewayCounts = []int{0, 0, 2}, []int{5, 7, 1}
		}, "gateway pod 0 listed twice"},
		{"negative gateway count", func(c *Config) {
			c.GatewayPods, c.GatewayCounts = []int{0, 2}, []int{5, -1}
		}, "negative gateway count -1 for pod 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := FT8()
			c.edit(&cfg)
			if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("New: error %v, want one containing %q", err, c.want)
			}
		})
	}
}

func TestSwitchesInPodOrdering(t *testing.T) {
	topo := mustFT8(t)
	sws := topo.SwitchesInPod(7) // a gateway pod (paper's pod 8)
	if len(sws) != 8 {
		t.Fatalf("pod 7 has %d switches, want 8 (4 spines + 4 ToRs)", len(sws))
	}
	for i, idx := range sws {
		r := topo.Switches[idx].Role
		if i < 4 && !r.IsSpine() {
			t.Fatalf("position %d is %v, want spine first", i, r)
		}
		if i >= 4 && !r.IsToR() {
			t.Fatalf("position %d is %v, want ToR last", i, r)
		}
	}
	// Last switch is the gateway ToR, matching Fig. 8's switch 8.
	if topo.Switches[sws[7]].Role != RoleGatewayToR {
		t.Fatalf("last switch in gateway pod is %v, want gateway-tor", topo.Switches[sws[7]].Role)
	}
}

func TestRoleHelpers(t *testing.T) {
	if !RoleGatewayToR.IsToR() || !RoleToR.IsToR() || RoleSpine.IsToR() {
		t.Fatal("IsToR misclassifies")
	}
	if !RoleGatewaySpine.IsSpine() || !RoleSpine.IsSpine() || RoleCore.IsSpine() {
		t.Fatal("IsSpine misclassifies")
	}
	if RoleCore.Layer() != "core" || RoleGatewayToR.Layer() != "tor" || RoleGatewaySpine.Layer() != "spine" {
		t.Fatal("Layer misclassifies")
	}
}

func TestStringSummary(t *testing.T) {
	topo := mustFT8(t)
	want := "fat-tree: 8 pods, 32 ToRs, 32 spines, 16 cores, 128 servers, 40 gateways"
	if got := topo.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func BenchmarkNewFT8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(FT8()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFT16PathProperties(t *testing.T) {
	topo, err := New(FT16())
	if err != nil {
		t.Fatal(err)
	}
	// Cross-pod ToR distance is 4 (ToR-spine-core-spine-ToR), same as FT8.
	var torA, torB int32 = -1, -1
	for _, s := range topo.Switches {
		if s.Role.IsToR() && s.Pod == 1 && torA < 0 {
			torA = s.Idx
		}
		if s.Role.IsToR() && s.Pod == 30 && torB < 0 {
			torB = s.Idx
		}
	}
	if d := topo.SwitchDistance(torA, torB); d != 4 {
		t.Fatalf("FT16 cross-pod ToR distance = %d, want 4", d)
	}
	// Every ToR has SpinesPerPod uplinks.
	if got := len(topo.NextHops(torA, torB)); got != topo.Cfg.SpinesPerPod {
		t.Fatalf("FT16 ECMP width = %d, want %d", got, topo.Cfg.SpinesPerPod)
	}
}

func TestGatewayCountsOverride(t *testing.T) {
	cfg := FT8()
	cfg.GatewayPods = []int{0, 1}
	cfg.GatewayCounts = []int{3, 5}
	topo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Gateways()); got != 8 {
		t.Fatalf("gateways = %d, want 8", got)
	}
	perPod := map[int]int{}
	for _, g := range topo.Gateways() {
		perPod[topo.Hosts[g].Pod]++
	}
	if perPod[0] != 3 || perPod[1] != 5 {
		t.Fatalf("per-pod gateway counts = %v, want 3/5", perPod)
	}
}
