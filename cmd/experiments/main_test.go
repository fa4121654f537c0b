package main

import (
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
