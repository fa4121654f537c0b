package harness

// Determinism guards for the sharded engine (internal/simnet/shard.go):
// byte-identical results at every shard count, oracle-vs-windowed
// protocol validation, fault schedules at >1 shard, and the scheme
// whitelist.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"switchv2p/internal/simtime"
	"switchv2p/internal/telemetry"
)

// runDoc runs one configuration to completion and flattens every
// comparable outcome — the report fingerprint, the engine counters, the
// core/host scheme stats, the sampled timeline, the counter and gauge
// readings and the fault timeline — into one string. The engine profile
// is wall-clock and so deliberately excluded.
func runDoc(t *testing.T, cfg Config) (*Report, string) {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	doc.WriteString(reportFingerprint(r))
	fmt.Fprintf(&doc, "\n%+v\n", r.World.Engine.C)
	if r.CoreStats != nil {
		fmt.Fprintf(&doc, "%+v\n", *r.CoreStats)
	}
	if r.HostStats != nil {
		fmt.Fprintf(&doc, "%+v\n", *r.HostStats)
	}
	if r.Telemetry != nil {
		if err := r.Telemetry.WriteCSV(&doc); err != nil {
			t.Fatal(err)
		}
		if err := r.Telemetry.WriteFaultsCSV(&doc); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&doc, "%+v\n%+v\n", r.Telemetry.Counters(), r.Telemetry.Gauges())
	}
	return r, doc.String()
}

// TestShardCountByteIdentical is the tentpole's acceptance guard: the
// same seed run at 1, 2, 4 and 8 shard workers must produce
// byte-identical reports and telemetry snapshots — the worker count only
// changes which goroutine claims a domain, never what it computes.
func TestShardCountByteIdentical(t *testing.T) {
	for _, scheme := range []string{SchemeSwitchV2P, SchemeNoCache} {
		var refDoc string
		var ref *Report
		for _, shards := range []int{1, 2, 4, 8} {
			cfg := quickConfig(scheme)
			cfg.Telemetry = &telemetry.Options{Interval: 5 * simtime.Microsecond}
			cfg.Shards = shards
			r, doc := runDoc(t, cfg)
			if r.HostSent == 0 || r.Summary.Flows == 0 {
				t.Fatalf("%s shards=%d: empty run (sent=%d flows=%d)",
					scheme, shards, r.HostSent, r.Summary.Flows)
			}
			if shards == 1 {
				ref, refDoc = r, doc
				continue
			}
			if doc != refDoc {
				t.Errorf("%s: results diverge between 1 and %d shards\n1 shard:\n%s\n%d shards:\n%s",
					scheme, shards, refDoc, shards, doc)
			}
			if !reflect.DeepEqual(r.World.Engine.C, ref.World.Engine.C) {
				t.Errorf("%s: engine counters diverge between 1 and %d shards:\n1: %+v\n%d: %+v",
					scheme, shards, ref.World.Engine.C, shards, r.World.Engine.C)
			}
		}
	}
}

// TestShardOracleMatchesWindowed validates the conservative
// synchronization protocol itself: the serial oracle (globally
// earliest-first dispatch over the same domains, mailboxes and event
// keys) and the windowed parallel runs must be byte-identical. Any
// event the windowed engine dispatches out of global order in a way
// that matters would break this.
func TestShardOracleMatchesWindowed(t *testing.T) {
	oracle := quickConfig(SchemeSwitchV2P)
	oracle.Telemetry = &telemetry.Options{Interval: 5 * simtime.Microsecond}
	oracle.ShardOracle = true
	_, oracleDoc := runDoc(t, oracle)

	windowed := quickConfig(SchemeSwitchV2P)
	windowed.Telemetry = &telemetry.Options{Interval: 5 * simtime.Microsecond}
	windowed.Shards = 4
	_, windowedDoc := runDoc(t, windowed)

	if oracleDoc != windowedDoc {
		t.Fatalf("oracle and windowed runs diverge\noracle:\n%s\nwindowed:\n%s", oracleDoc, windowedDoc)
	}
}

// TestShardFaultScheduleDeterministic runs the full fault scenario
// (explicit schedule, random failure model, loss windows) at more than
// one shard: faults apply at barriers, so every shard count must see
// the identical fault timeline and identical outcomes.
func TestShardFaultScheduleDeterministic(t *testing.T) {
	var refDoc string
	var ref *Report
	for _, shards := range []int{1, 2, 4} {
		cfg := faultyConfig(SchemeSwitchV2P, 7)
		cfg.Telemetry = &telemetry.Options{Interval: 5 * simtime.Microsecond}
		cfg.Shards = shards
		r, doc := runDoc(t, cfg)
		if r.FaultEvents == 0 {
			t.Fatalf("shards=%d: no fault events applied", shards)
		}
		if r.FaultDrops+r.LossDrops == 0 {
			t.Fatalf("shards=%d: fault scenario dropped nothing", shards)
		}
		if shards == 1 {
			ref, refDoc = r, doc
			continue
		}
		if doc != refDoc {
			t.Errorf("fault run diverges between 1 and %d shards\n1 shard:\n%s\n%d shards:\n%s",
				shards, refDoc, shards, doc)
		}
		if r.FaultEvents != ref.FaultEvents {
			t.Errorf("fault event counts diverge: 1 shard %d, %d shards %d",
				ref.FaultEvents, shards, r.FaultEvents)
		}
	}
}

// TestShardRejectsUnsupportedScheme pins the whitelist: schemes with
// global mutable per-event state cannot run sharded and must be refused
// with a descriptive error at build time, not a corrupt result at run
// time.
func TestShardRejectsUnsupportedScheme(t *testing.T) {
	// The host-cache family (hostcache, hosttor) runs unsharded for now:
	// the host tier's pending-install maps and LRU lists are global
	// per-event mutable state, so the schemes are deliberately absent
	// from the ShardSupported whitelist until they grow per-shard slots.
	for _, scheme := range []string{
		SchemeLocalLearning, SchemeOnDemand, SchemeBluebird,
		SchemeController, SchemeHybrid, SchemeHostCache, SchemeHostToR,
	} {
		cfg := quickConfig(scheme)
		cfg.Shards = 2
		if _, err := Build(cfg); err == nil {
			t.Errorf("%s: sharded build succeeded, want a whitelist error", scheme)
		}
	}
}

// TestForSchemeDegradesShards pins the sweep helpers' best-effort
// contract: ForScheme keeps a base config's Shards request for
// whitelisted schemes and silently drops it (falling back to the serial
// engine) for serial-only schemes — including the host-cache family —
// so mixed-scheme sweeps build instead of erroring.
func TestForSchemeDegradesShards(t *testing.T) {
	base := quickConfig(SchemeSwitchV2P)
	base.Shards = 4
	base.ShardOracle = true
	for _, tc := range []struct {
		scheme  string
		sharded bool
	}{
		{SchemeSwitchV2P, true},
		{SchemeNoCache, true},
		{SchemeDirect, true},
		{SchemeGwCache, true},
		{SchemeHybrid, false},
		{SchemeHostCache, false},
		{SchemeHostToR, false},
	} {
		got := base.ForScheme(tc.scheme)
		if got.Scheme != tc.scheme {
			t.Errorf("ForScheme(%s).Scheme = %s", tc.scheme, got.Scheme)
		}
		if tc.sharded && (got.Shards != 4 || !got.ShardOracle) {
			t.Errorf("%s: ForScheme dropped shards for a whitelisted scheme", tc.scheme)
		}
		if !tc.sharded && (got.Shards != 0 || got.ShardOracle) {
			t.Errorf("%s: ForScheme kept Shards=%d ShardOracle=%v for a serial-only scheme",
				tc.scheme, got.Shards, got.ShardOracle)
		}
		// The degraded config must actually build.
		if _, err := Build(got); err != nil {
			t.Errorf("%s: degraded build failed: %v", tc.scheme, err)
		}
	}
}
