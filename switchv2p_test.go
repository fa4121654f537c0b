package switchv2p_test

import (
	"testing"
	"time"

	"switchv2p"
)

func apiConfig(scheme string) switchv2p.Config {
	return switchv2p.Config{
		VMs:           512,
		Scheme:        scheme,
		TraceName:     "hadoop",
		Duration:      switchv2p.FromStd(150 * time.Microsecond),
		MaxFlows:      200,
		CacheFraction: 0.5,
		Seed:          2,
	}
}

func TestPublicRun(t *testing.T) {
	r, err := switchv2p.Run(apiConfig(switchv2p.SchemeSwitchV2P))
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary.Completed == 0 {
		t.Fatalf("no flows completed: %+v", r.Summary)
	}
	if r.HitRate <= 0 {
		t.Fatalf("hit rate = %v", r.HitRate)
	}
	if r.CoreStats == nil {
		t.Fatal("SwitchV2P run missing core stats")
	}
}

func TestPublicAllSchemes(t *testing.T) {
	names := switchv2p.AllSchemes()
	if len(names) != 8 {
		t.Fatalf("AllSchemes = %v", names)
	}
	// The returned slice is a copy: mutating it must not corrupt state.
	names[0] = "corrupted"
	if switchv2p.AllSchemes()[0] == "corrupted" {
		t.Fatal("AllSchemes returns internal storage")
	}
}

func TestPublicBuildThenCustomEvents(t *testing.T) {
	w, err := switchv2p.Build(apiConfig(switchv2p.SchemeSwitchV2P))
	if err != nil {
		t.Fatal(err)
	}
	// Schedule a migration mid-run through the exposed world.
	vip := w.VIPs[0]
	target := w.VIPs[100]
	targetHost, _ := w.Net.HostOf(target)
	cur, _ := w.Net.HostOf(vip)
	if cur == targetHost {
		t.Skip("same host; pick different seed")
	}
	w.Engine.Q.At(switchv2p.Time(50*time.Microsecond.Nanoseconds()), func() {
		if err := w.Net.Migrate(vip, targetHost); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	w.Engine.Run(1 << 62)
	r := w.Report()
	if r.Summary.Flows == 0 {
		t.Fatal("no flows")
	}
}

func TestPublicTopologies(t *testing.T) {
	ft8 := switchv2p.FT8()
	if ft8.Pods != 8 || ft8.GatewaysPerPod != 10 {
		t.Fatalf("FT8 = %+v", ft8)
	}
	ft16 := switchv2p.FT16()
	if ft16.Pods != 50 {
		t.Fatalf("FT16 = %+v", ft16)
	}
}

func TestPublicP4Utilization(t *testing.T) {
	u, err := switchv2p.P4Utilization()
	if err != nil {
		t.Fatal(err)
	}
	if !u.Fits() {
		t.Fatalf("prototype does not fit: %v", u)
	}
}

func TestPublicCacheSizeSweep(t *testing.T) {
	pts, err := switchv2p.CacheSizeSweep(apiConfig(""), []float64{0.5},
		[]string{switchv2p.SchemeNoCache, switchv2p.SchemeSwitchV2P})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
}

func TestPublicMigration(t *testing.T) {
	mc := switchv2p.DefaultMigrationConfig(apiConfig(switchv2p.SchemeSwitchV2P))
	mc.Senders = 8
	mc.TotalPackets = 800
	res, err := switchv2p.Migration(mc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatalf("nothing delivered: %+v", res)
	}
}
