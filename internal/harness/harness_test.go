package harness

import (
	"math"
	"strings"
	"testing"

	"switchv2p/internal/core"
	"switchv2p/internal/faults"
	"switchv2p/internal/simtime"
	"switchv2p/internal/telemetry"
	"switchv2p/internal/topology"
)

// quickConfig returns a small, fast configuration for tests.
func quickConfig(scheme string) Config {
	return Config{
		Topo:          topology.FT8(),
		VMs:           512,
		Scheme:        scheme,
		TraceName:     "hadoop",
		Load:          0.2,
		Duration:      200 * simtime.Microsecond,
		MaxFlows:      300,
		CacheFraction: 0.5,
		Seed:          3,
	}
}

func TestRunAllSchemes(t *testing.T) {
	// Which schemes cache in the network: the report carries those
	// caches' statistics for exactly these.
	inNetwork := map[string]bool{SchemeSwitchV2P: true, SchemeGwCache: true}
	for _, scheme := range AllSchemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			r, err := Run(quickConfig(scheme))
			if err != nil {
				t.Fatal(err)
			}
			if r.Scheme == "" {
				t.Fatal("empty scheme name")
			}
			if r.Summary.Flows == 0 {
				t.Fatal("no flows simulated")
			}
			if r.Summary.Completed == 0 {
				t.Fatalf("no flows completed: %+v", r.Summary)
			}
			if r.HitRate < 0 || r.HitRate > 1 {
				t.Fatalf("hit rate %v out of range", r.HitRate)
			}
			if got := r.CoreStats != nil; got != inNetwork[scheme] {
				t.Fatalf("CoreStats present: %v, want %v", got, inNetwork[scheme])
			}
			if r.CoreStats != nil && r.CoreStats.Lookups == 0 {
				t.Fatal("CoreStats counted no lookup")
			}
		})
	}
}

func TestUnknownSchemeAndTrace(t *testing.T) {
	cfg := quickConfig("nosuchscheme")
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	cfg = quickConfig(SchemeNoCache)
	cfg.TraceName = "nosuchtrace"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown trace accepted")
	}
}

func TestHitRateOrdering(t *testing.T) {
	// SwitchV2P must beat NoCache (0) and LocalLearning on hit rate for a
	// reuse-heavy trace at a moderate cache size.
	get := func(scheme string) float64 {
		r, err := Run(quickConfig(scheme))
		if err != nil {
			t.Fatal(err)
		}
		return r.HitRate
	}
	nc := get(SchemeNoCache)
	sv := get(SchemeSwitchV2P)
	ll := get(SchemeLocalLearning)
	if nc != 0 {
		t.Fatalf("NoCache hit rate = %v, want 0", nc)
	}
	if sv <= ll {
		t.Fatalf("SwitchV2P hit rate %v not above LocalLearning %v", sv, ll)
	}
	if sv < 0.3 {
		t.Fatalf("SwitchV2P hit rate %v unexpectedly low", sv)
	}
}

func TestFCTImprovementShape(t *testing.T) {
	// Fig. 5a shape: at a decent cache size, SwitchV2P improves FCT over
	// NoCache; Direct is the upper bound.
	pts, err := CacheSizeSweep(quickConfig(""), []float64{0.5},
		[]string{SchemeNoCache, SchemeSwitchV2P, SchemeDirect})
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[string]SweepPoint{}
	for _, p := range pts {
		byScheme[p.Scheme] = p
	}
	if got := byScheme["NoCache"].FCTImprovement; got != 1 {
		t.Fatalf("NoCache improvement = %v, want 1 (self-normalized)", got)
	}
	sv := byScheme["SwitchV2P"].FCTImprovement
	d := byScheme["Direct"].FCTImprovement
	if sv <= 1 {
		t.Fatalf("SwitchV2P FCT improvement = %v, want > 1", sv)
	}
	if d < sv {
		t.Fatalf("Direct improvement %v below SwitchV2P %v", d, sv)
	}
}

func TestCacheSizeMonotonicityRough(t *testing.T) {
	// Bigger caches should not dramatically hurt the hit rate.
	pts, err := CacheSizeSweep(quickConfig(""), []float64{0.05, 1.0},
		[]string{SchemeSwitchV2P})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	small, big := pts[0], pts[1]
	if big.HitRate < small.HitRate-0.05 {
		t.Fatalf("hit rate degraded with cache size: %v -> %v", small.HitRate, big.HitRate)
	}
}

func TestPerPodBytesGatewayConcentration(t *testing.T) {
	// Fig. 7 shape: under NoCache, gateway pods (0,2,5,7) carry more
	// bytes than non-gateway pods; SwitchV2P narrows the gap.
	nc, err := Run(quickConfig(SchemeNoCache))
	if err != nil {
		t.Fatal(err)
	}
	sv, err := Run(quickConfig(SchemeSwitchV2P))
	if err != nil {
		t.Fatal(err)
	}
	sum := func(bytes []int64, pods []int) int64 {
		var n int64
		for _, p := range pods {
			n += bytes[p]
		}
		return n
	}
	gwPods, otherPods := []int{0, 2, 5, 7}, []int{1, 3, 4, 6}
	ncGw, ncOther := sum(nc.PerPodBytes, gwPods), sum(nc.PerPodBytes, otherPods)
	svGw := sum(sv.PerPodBytes, gwPods)
	if ncGw <= ncOther {
		t.Fatalf("NoCache gateway pods not hotter: gw=%d other=%d", ncGw, ncOther)
	}
	if svGw >= ncGw {
		t.Fatalf("SwitchV2P did not reduce gateway-pod load: %d vs %d", svGw, ncGw)
	}
	// Total network bytes also shrink (the paper's 1.9x claim direction).
	if sv.TotalSwitchBytes >= nc.TotalSwitchBytes {
		t.Fatalf("SwitchV2P total bytes %d not below NoCache %d",
			sv.TotalSwitchBytes, nc.TotalSwitchBytes)
	}
}

func TestStretchImproves(t *testing.T) {
	nc, err := Run(quickConfig(SchemeNoCache))
	if err != nil {
		t.Fatal(err)
	}
	sv, err := Run(quickConfig(SchemeSwitchV2P))
	if err != nil {
		t.Fatal(err)
	}
	if sv.AvgStretch >= nc.AvgStretch {
		t.Fatalf("stretch: SwitchV2P %v >= NoCache %v", sv.AvgStretch, nc.AvgStretch)
	}
}

func TestPodSwitchBytesOrdering(t *testing.T) {
	r, err := Run(quickConfig(SchemeNoCache))
	if err != nil {
		t.Fatal(err)
	}
	row := r.PodSwitchBytes(7)
	if len(row) != 8 {
		t.Fatalf("pod 7 has %d switches, want 8", len(row))
	}
	// The gateway ToR (last entry) is the hottest switch in a gateway pod
	// under NoCache.
	last := row[len(row)-1]
	for i, b := range row[:len(row)-1] {
		if b > last {
			t.Fatalf("switch %d busier (%d) than the gateway ToR (%d)", i, b, last)
		}
	}
}

func TestGatewaySweepShape(t *testing.T) {
	base := quickConfig("")
	pts, err := GatewaySweep(base, []int{40, 4}, []string{SchemeNoCache, SchemeSwitchV2P})
	if err != nil {
		t.Fatal(err)
	}
	get := func(scheme string, gws int) GatewayPoint {
		for _, p := range pts {
			if p.Scheme == scheme && p.Gateways == gws {
				return p
			}
		}
		t.Fatalf("missing point %s/%d", scheme, gws)
		return GatewayPoint{}
	}
	// Fig. 9 shape: NoCache degrades with 10x fewer gateways much more
	// than SwitchV2P.
	ncRatio := float64(get(SchemeNoCache, 4).FCT) / float64(get(SchemeNoCache, 40).FCT)
	svRatio := float64(get(SchemeSwitchV2P, 4).FCT) / float64(get(SchemeSwitchV2P, 40).FCT)
	// At this small test scale neither may degrade much; allow noise but
	// catch a real inversion.
	if svRatio > ncRatio*1.1 {
		t.Fatalf("SwitchV2P degraded more than NoCache: %v vs %v", svRatio, ncRatio)
	}
	if svRatio > 1.5 {
		t.Fatalf("SwitchV2P with 4 gateways degraded %vx, want near-flat", svRatio)
	}
}

func TestMigrationExperimentVariants(t *testing.T) {
	run := func(scheme string, inval, ts bool) *MigrationResult {
		base := quickConfig(scheme)
		base.V2PInvalidation = &inval
		base.V2PTimestampVector = &ts
		mc := DefaultMigrationConfig(base)
		mc.Senders = 16
		mc.TotalPackets = 4000
		res, err := Migration(mc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	nc := run(SchemeNoCache, true, true)
	od := run(SchemeOnDemand, true, true)
	svFull := run(SchemeSwitchV2P, true, true)
	svNoInval := run(SchemeSwitchV2P, false, true)
	svNoTS := run(SchemeSwitchV2P, true, false)

	// Table 4 shapes:
	// NoCache: all packets via gateway, fewest misdeliveries.
	if nc.GatewayPacketShare < 0.99 {
		t.Fatalf("NoCache gateway share = %v", nc.GatewayPacketShare)
	}
	// SwitchV2P's misdeliveries stay within a small factor of NoCache's
	// (Table 4 reports 1.2x at full scale; the exact ratio depends on how
	// the invalidation convergence window compares with the 40 µs gateway
	// pipeline).
	if svFull.Misdelivered > 2*nc.Misdelivered {
		t.Fatalf("SwitchV2P misdelivered %d far above NoCache %d", svFull.Misdelivered, nc.Misdelivered)
	}
	// OnDemand: zero gateway traffic, many misdeliveries (stale hosts).
	if od.GatewayPacketShare > 0.01 {
		t.Fatalf("OnDemand gateway share = %v", od.GatewayPacketShare)
	}
	if od.Misdelivered <= svFull.Misdelivered {
		t.Fatalf("OnDemand misdelivered %d not above full SwitchV2P %d",
			od.Misdelivered, svFull.Misdelivered)
	}
	// SwitchV2P: small gateway share; invalidations curb misdeliveries.
	if svFull.GatewayPacketShare > 0.5 {
		t.Fatalf("SwitchV2P gateway share = %v, want small", svFull.GatewayPacketShare)
	}
	if svNoInval.Misdelivered < svFull.Misdelivered {
		t.Fatalf("disabling invalidations reduced misdeliveries: %d < %d",
			svNoInval.Misdelivered, svFull.Misdelivered)
	}
	if svNoInval.InvalidationPkts != 0 {
		t.Fatalf("no-invalidation variant sent %d invalidations", svNoInval.InvalidationPkts)
	}
	// The timestamp vector slashes invalidation packet counts.
	if svNoTS.InvalidationPkts <= svFull.InvalidationPkts {
		t.Fatalf("timestamp vector did not reduce invalidations: %d vs %d",
			svNoTS.InvalidationPkts, svFull.InvalidationPkts)
	}
	// Packets keep arriving at the right place in all variants.
	for _, r := range []*MigrationResult{nc, od, svFull, svNoInval, svNoTS} {
		if r.Delivered == 0 {
			t.Fatalf("%s delivered nothing", r.Scheme)
		}
	}
}

// TestV2PSizeForToROnly pins §4's heterogeneous-allocation remark at
// cmd/experiments' quick ablation config (-exp ablation -scale quick):
// giving the whole budget to the ToRs lowers Hadoop FCT but not
// first-packet latency, and since spines and cores get no lines every
// hit lands at a ToR.
func TestV2PSizeForToROnly(t *testing.T) {
	run := func(torOnly bool) *Report {
		t.Helper()
		r, err := Run(Config{
			Topo:          topology.FT8(),
			VMs:           1024,
			Scheme:        SchemeSwitchV2P,
			TraceName:     "hadoop",
			Load:          0.30,
			Duration:      300 * simtime.Microsecond,
			MaxFlows:      1500,
			CacheFraction: 0.5,
			Seed:          1,
			V2PToROnly:    torOnly,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	uniform, torOnly := run(false), run(true)
	if got, base := torOnly.Summary.AvgFCT, uniform.Summary.AvgFCT; got >= base {
		t.Errorf("ToR-only avg FCT %.1f µs, want below uniform's %.1f µs", got.Micros(), base.Micros())
	}
	if got, base := torOnly.Summary.AvgFirstPacket, uniform.Summary.AvgFirstPacket; got < base {
		t.Errorf("ToR-only avg first-packet latency %.1f µs, want not below uniform's %.1f µs",
			got.Micros(), base.Micros())
	}
	hits := torOnly.CoreStats.HitsByLayer
	if hits[core.LayerToR] == 0 || hits[core.LayerSpine] != 0 || hits[core.LayerCore] != 0 {
		t.Errorf("want ToR hits only with ToR-only allocation: %+v", hits)
	}
}

// TestControllerCrossoverShape pins §A.2's comparison at cmd/experiments'
// quick scale (-exp controller -scale quick): a small cache favours the
// controller's global view, a large one SwitchV2P's learning, and a
// slower refresh costs the controller hit rate at both sizes.
func TestControllerCrossoverShape(t *testing.T) {
	run := func(scheme string, interval simtime.Duration, frac float64) *Report {
		t.Helper()
		r, err := Run(Config{
			Topo:               topology.FT8(),
			VMs:                1024,
			Scheme:             scheme,
			TraceName:          "websearch",
			Load:               0.30,
			Duration:           300 * simtime.Microsecond,
			MaxFlows:           1500,
			CacheFraction:      frac,
			Seed:               1,
			ControllerInterval: interval,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, frac := range []float64{0.1, 1.0} {
		fast := run(SchemeController, 150*simtime.Microsecond, frac)
		slow := run(SchemeController, 300*simtime.Microsecond, frac)
		sv := run(SchemeSwitchV2P, 0, frac)
		t.Logf("cache %g: Controller@150 hit %.3f FCT %v, @300 hit %.3f, SwitchV2P hit %.3f FCT %v",
			frac, fast.HitRate, fast.Summary.AvgFCT, slow.HitRate, sv.HitRate, sv.Summary.AvgFCT)
		if slow.HitRate >= fast.HitRate {
			t.Errorf("cache %g: Controller@300µs hit rate %.3f not below @150µs %.3f", frac, slow.HitRate, fast.HitRate)
		}
		if frac < 1 {
			// The two hit rates sit within 0.002 of each other here, too
			// thin a margin to assert; FCT separates them.
			if fast.Summary.AvgFCT >= sv.Summary.AvgFCT {
				t.Errorf("cache %g: Controller@150µs FCT %v not below SwitchV2P %v", frac, fast.Summary.AvgFCT, sv.Summary.AvgFCT)
			}
		} else if sv.HitRate <= fast.HitRate || sv.Summary.AvgFCT >= fast.Summary.AvgFCT {
			t.Errorf("cache %g: SwitchV2P (hit %.3f, FCT %v) does not beat Controller@150µs (hit %.3f, FCT %v)",
				frac, sv.HitRate, sv.Summary.AvgFCT, fast.HitRate, fast.Summary.AvgFCT)
		}
	}
}

func TestDeterministicReports(t *testing.T) {
	a, err := Run(quickConfig(SchemeSwitchV2P))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickConfig(SchemeSwitchV2P))
	if err != nil {
		t.Fatal(err)
	}
	if a.HitRate != b.HitRate || a.Summary.AvgFCT != b.Summary.AvgFCT ||
		a.TotalSwitchBytes != b.TotalSwitchBytes {
		t.Fatalf("non-deterministic runs:\n%+v\n%+v", a.Summary, b.Summary)
	}
}

func TestTopologySweepShape(t *testing.T) {
	base := quickConfig("")
	pts, err := TopologySweep(base, []int{4, 16}, []string{SchemeSwitchV2P, SchemeLocalLearning})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	for _, p := range pts {
		if p.FCT <= 0 {
			t.Fatalf("point %+v has no FCT", p)
		}
	}
}

func TestMigrationConfigValidation(t *testing.T) {
	base := quickConfig(SchemeSwitchV2P)
	mc := DefaultMigrationConfig(base)
	mc.Senders = 100000 // more than servers
	if _, err := Migration(mc); err == nil {
		t.Fatal("accepted more senders than servers")
	}

	// A fault event that cannot be applied fails the run, as it does in
	// Run: two hosts are never adjacent, which only the engine finds out.
	mc = DefaultMigrationConfig(base)
	mc.Senders, mc.TotalPackets = 16, 4000
	mc.Base.Faults = &faults.Config{Schedule: []faults.Event{{
		At: simtime.Time(10 * simtime.Microsecond), Kind: faults.LinkDown,
		A: topology.HostRef(0), B: topology.HostRef(1),
	}}}
	if _, err := Migration(mc); err == nil || !strings.Contains(err.Error(), "faults:") {
		t.Fatalf("a fault on a link that does not exist: error %v, want the injector's", err)
	}
}

func TestCacheSizeSweepUnknownScheme(t *testing.T) {
	if _, err := CacheSizeSweep(quickConfig(""), []float64{0.5}, []string{"bogus"}); err == nil {
		t.Fatal("unknown scheme accepted in sweep")
	}
}

// TestBuildRejectsBadConfig: numeric input that cannot size a run is an
// error naming the field, not a panic deep in cache or VM placement.
func TestBuildRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name, field string
		mod         func(*Config)
	}{
		{"negative cache", "CacheFraction", func(c *Config) { c.CacheFraction = -1 }},
		{"NaN cache", "CacheFraction", func(c *Config) { c.CacheFraction = math.NaN() }},
		{"+Inf cache", "CacheFraction", func(c *Config) { c.CacheFraction = math.Inf(1) }},
		{"-Inf cache", "CacheFraction", func(c *Config) { c.CacheFraction = math.Inf(-1) }},
		{"negative VMs", "VMs", func(c *Config) { c.VMs = -5 }},
		{"NaN load", "Load", func(c *Config) { c.Load = math.NaN() }},
		{"negative max flows", "MaxFlows", func(c *Config) { c.MaxFlows = -3 }},
		{"negative gateways", "ActiveGateways", func(c *Config) { c.ActiveGateways = -2 }},
		{"negative shards", "Shards", func(c *Config) { c.Shards = -1 }},
		{"negative telemetry interval", "Telemetry.Interval", func(c *Config) {
			c.Telemetry = &telemetry.Options{Interval: -5 * simtime.Microsecond}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickConfig(SchemeSwitchV2P)
			tc.mod(&cfg)
			_, err := Build(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("Build: error %v, want one naming %s", err, tc.field)
			}
		})
	}
}

func TestFT16PaperScaleVMCount(t *testing.T) {
	// The paper's full FT16-400K population (410,865 containers) must
	// build and run; capped flows keep the runtime around a second.
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{
		Topo:          topology.FT16(),
		VMs:           410865,
		Scheme:        SchemeSwitchV2P,
		TraceName:     "alibaba",
		Load:          0.3,
		Duration:      simtime.Millisecond,
		MaxFlows:      3000,
		CacheFraction: 0.5,
		Seed:          1,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.Completed != r.Summary.Flows {
		t.Fatalf("completed %d/%d", r.Summary.Completed, r.Summary.Flows)
	}
	if r.HitRate <= 0.3 {
		t.Fatalf("hit rate %v unexpectedly low for the RPC trace", r.HitRate)
	}
}
