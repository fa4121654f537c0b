package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"switchv2p/internal/harness"
	"switchv2p/internal/simtime"
)

func TestScalesWellFormed(t *testing.T) {
	for name, sc := range scales {
		if sc.VMs <= 0 || sc.Duration <= 0 || len(sc.Fractions) == 0 {
			t.Fatalf("scale %q malformed: %+v", name, sc)
		}
		if sc.MigrationSenders <= 0 || sc.MigrationPackets < sc.MigrationSenders {
			t.Fatalf("scale %q migration params malformed", name)
		}
		cfg := sc.baseConfig("hadoop")
		if cfg.TraceName != "hadoop" || cfg.Load != 0.30 {
			t.Fatalf("scale %q baseConfig wrong: %+v", name, cfg)
		}
		if cfg.Topo.Pods != 8 {
			t.Fatalf("scale %q must default to FT8", name)
		}
	}
}

func TestScalesOrdering(t *testing.T) {
	q, s, f := scales["quick"], scales["standard"], scales["full"]
	if !(q.VMs <= s.VMs && s.VMs <= f.VMs) {
		t.Fatal("VM counts not ordered quick <= standard <= full")
	}
	if !(q.Duration <= s.Duration && s.Duration <= f.Duration) {
		t.Fatal("durations not ordered")
	}
}

func TestUsFormatting(t *testing.T) {
	if got := us(1500 * simtime.Nanosecond); got != "1.5" {
		t.Fatalf("us(1.5µs) = %q", got)
	}
	if got := us(40 * simtime.Microsecond); got != "40.0" {
		t.Fatalf("us(40µs) = %q", got)
	}
}

func TestQuickScaleTable5Runs(t *testing.T) {
	// table5 on the smallest trace only (video) would skip layers; run the
	// harness directly on one trace to keep the test fast.
	sc := scales["quick"]
	cfg := sc.baseConfig("hadoop")
	cfg.Scheme = harness.SchemeSwitchV2P
	r, err := harness.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.CoreStats == nil {
		t.Fatal("missing core stats for table5")
	}
}

// TestCSVFailureFailsTheExperiment: a -csv directory that cannot take
// the file fails the experiment; a writable one receives it.
func TestCSVFailureFailsTheExperiment(t *testing.T) {
	prev := csvDir
	t.Cleanup(func() { csvDir = prev })
	sc := scales["quick"]

	csvDir = filepath.Join(t.TempDir(), "no", "such", "dir")
	if err := table4(sc); err == nil || !strings.Contains(err.Error(), "table4_migration.csv") {
		t.Fatalf("table4 with an unwritable -csv dir: err = %v, want the create error", err)
	}

	csvDir = t.TempDir()
	if err := table4(sc); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(csvDir, "table4_migration.csv"))
	if err != nil || !strings.HasPrefix(string(b), "scheme,gateway_packet_share,") {
		t.Fatalf("table4_migration.csv = %q, %v", b, err)
	}
}
