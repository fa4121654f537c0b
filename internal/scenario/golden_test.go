package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"switchv2p/internal/harness"
	"switchv2p/internal/simtime"
)

// goldenProductionDayQuick is the SHA-256 of the quick production day's
// JSON report, final engine counters and core stats at seed 1, pinned
// for GOARCH=amd64 (see harness.TestGoldenDigests for the contract: no
// update flag, a mismatch prints the new value).
const goldenProductionDayQuick = "f00a3fa247eb743832e705b80d84eaad30a43c6cd99e75e5cf263440a1d5e7d1"

// TestGoldenProductionDay runs the CI smoke's production day (the
// cmd/experiments quick scale: six phases with churn, a migration
// storm, gateway drains and a rolling upgrade) and compares its digest
// with the committed one.
func TestGoldenProductionDay(t *testing.T) {
	rep, err := Run(ProductionDay(harness.Config{
		VMs: 1024, Scheme: harness.SchemeSwitchV2P, TraceName: "hadoop",
		Load: 0.30, CacheFraction: 0.5, Seed: 1,
	}, DayOptions{
		DayLength:  24 * simtime.Millisecond,
		FlowBudget: 2400, Churn: 24, Migrations: 16,
		UpgradeWaves: 2, DrainGateways: 2,
	}))
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := rep.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&doc, "%+v\n%+v\n", rep.Final.World.Engine.C, *rep.Final.CoreStats)
	sum := sha256.Sum256(doc.Bytes())
	got := hex.EncodeToString(sum[:])
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest is pinned for amd64; %s computed %s", runtime.GOARCH, got)
	}
	if got != goldenProductionDayQuick {
		t.Errorf("production-day output changed: digest %s, committed %s; if that is intended, update goldenProductionDayQuick",
			got, goldenProductionDayQuick)
	}
}
