package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"switchv2p/internal/simtime"
	"switchv2p/internal/telemetry"
)

// TestGoldenDigests pins the simulator's output at fixed seeds to
// testdata/golden.json: one SHA-256 per run over runDoc's document
// (report fingerprint, engine counters, core/host stats, and the
// telemetry CSVs, counters and gauges where telemetry is on). It is the oracle
// for behaviour-preserving refactors — a second implementation kept
// only to be compared against can be deleted once its digests are
// committed. There is no update flag: on a mismatch the test prints the
// JSON it computed, and committing that file is the (reviewed) statement
// that simulator output was meant to change.
func TestGoldenDigests(t *testing.T) {
	type goldenCase struct {
		name string
		doc  func(t *testing.T) string
	}
	run := func(cfg Config) func(*testing.T) string {
		return func(t *testing.T) string {
			_, doc := runDoc(t, cfg)
			return doc
		}
	}
	var cases []goldenCase
	for _, scheme := range AllSchemes {
		cases = append(cases, goldenCase{"serial/" + scheme, run(quickConfig(scheme))})
	}
	for _, scheme := range AllSchemes {
		if ShardSupported(scheme) {
			cfg := quickConfig(scheme)
			cfg.Shards = 2
			cases = append(cases, goldenCase{"shards2/" + scheme, run(cfg)})
		}
	}
	sampled := quickConfig(SchemeSwitchV2P)
	sampled.Telemetry = &telemetry.Options{Interval: 5 * simtime.Microsecond}
	cases = append(cases,
		goldenCase{"faults/switchv2p", run(faultyConfig(SchemeSwitchV2P, 7))},
		goldenCase{"telemetry/switchv2p", run(sampled)},
		goldenCase{"migration/switchv2p", func(t *testing.T) string {
			mc := DefaultMigrationConfig(quickConfig(SchemeSwitchV2P))
			mc.Senders = 16
			mc.TotalPackets = 4000
			res, err := Migration(mc)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%+v", *res)
		}})

	// The runs are independent worlds; the group returns once every
	// parallel subtest has finished, each having written only its slot.
	sums := make([]string, len(cases))
	t.Run("run", func(t *testing.T) {
		for i, c := range cases {
			i, c := i, c
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				sum := sha256.Sum256([]byte(c.doc(t)))
				sums[i] = hex.EncodeToString(sum[:])
			})
		}
	})
	got := make(map[string]string, len(cases))
	for i, c := range cases {
		got[c.name] = sums[i]
	}
	fresh, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	// The committed digests are pinned for amd64: floating-point
	// contraction differs elsewhere.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned for amd64; %s computed:\n%s", runtime.GOARCH, fresh)
	}
	const path = "testdata/golden.json"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v\ncomputed digests:\n%s", err, fresh)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if reflect.DeepEqual(got, want) {
		return
	}
	for _, c := range cases {
		if want[c.name] != got[c.name] {
			t.Errorf("%s: digest %s, committed %q", c.name, got[c.name], want[c.name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: committed but no longer computed", name)
		}
	}
	t.Errorf("simulator output changed; if that is intended, replace %s with:\n%s", path, fresh)
}
