package harness

// Determinism guards for the sharded engine (internal/simnet/shard.go):
// byte-identical results at every shard count, oracle-vs-windowed
// protocol validation, fault schedules at >1 shard, the scheme
// whitelist, and the order of a barrier round.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"switchv2p/internal/eventq"
	"switchv2p/internal/netaddr"
	"switchv2p/internal/simtime"
	"switchv2p/internal/telemetry"
	"switchv2p/internal/trace"
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
	for _, scheme := range []string{
		SchemeLocalLearning, SchemeOnDemand, SchemeBluebird, SchemeController,
	} {
		cfg := quickConfig(scheme)
		cfg.Shards = 2
		if _, err := Build(cfg); err == nil {
			t.Errorf("%s: sharded build succeeded, want a whitelist error", scheme)
		}
	}
}

// barrierWorld builds a world with no transport flows and the given
// shard setting (0 = the serial engine), for tests that drive the engine
// by hand. It returns a sending host and two VIPs in different pods: one
// on that host and one elsewhere.
func barrierWorld(t *testing.T, shards int) (w *World, srcHost int32, src, dst netaddr.VIP) {
	t.Helper()
	cfg := quickConfig(SchemeSwitchV2P)
	cfg.Workload = &trace.Workload{}
	cfg.Shards = shards
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src = w.VIPs[0]
	srcHost, _ = w.Net.HostOf(src)
	for _, v := range w.VIPs {
		if h, _ := w.Net.HostOf(v); w.Topo.Hosts[h].Pod != w.Topo.Hosts[srcHost].Pod {
			return w, srcHost, src, v
		}
	}
	t.Fatal("no VIP outside the sender's pod")
	return
}

// TestShardBarrierRoundInTimeOrder pins SetBarrierSampler's contract
// against AtBarrier ops: a barrier round runs due ops and sample ticks
// one at a time in time order, an op before a tick at the same instant,
// and the engine clock never goes back.
func TestShardBarrierRoundInTimeOrder(t *testing.T) {
	w, srcHost, _, _ := barrierWorld(t, 1)
	e := w.Engine
	var got []string
	var last simtime.Time
	record := func(what string) {
		if now := e.Now(); now < last {
			t.Errorf("%s: Now() went back from %v to %v", what, last, now)
		} else {
			last = now
		}
		got = append(got, what)
	}
	e.SetBarrierSampler(5*simtime.Microsecond, func(at simtime.Time) {
		record(fmt.Sprintf("sample@%v", at))
	})
	e.AtBarrier(simtime.Time(20*simtime.Microsecond), func() { record("op@20µs") })
	e.HostAtTimed(srcHost, simtime.Time(30*simtime.Microsecond), eventq.Event(func() { record("event@30µs") }))
	e.Run(simtime.Time(30 * simtime.Microsecond))
	want := []string{"sample@5µs", "sample@10µs", "sample@15µs", "op@20µs",
		"sample@20µs", "sample@25µs", "sample@30µs", "event@30µs"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("barrier round order:\n got %v\nwant %v", got, want)
	}
}

// TestShardBarrierOpSchedulesOnIdleEngine pins that the events an
// AtBarrier op schedules run even when every domain queue was empty
// before it: the packet the op sends is delivered and conserved on both
// engines.
func TestShardBarrierOpSchedulesOnIdleEngine(t *testing.T) {
	for _, shards := range []int{0, 1} {
		w, srcHost, src, dst := barrierWorld(t, shards)
		e := w.Engine
		e.AtBarrier(simtime.Time(10*simtime.Microsecond), func() {
			e.HostSend(srcHost, e.Packets().NewData(7, 0, 1000, src, dst, 0))
		})
		e.Run(simtime.Never)
		if e.C.HostSent != 1 || e.C.Delivered != 1 {
			t.Errorf("shards=%d: sent %d, delivered %d, want 1 and 1", shards, e.C.HostSent, e.C.Delivered)
		}
		if gap := e.ConservationGap(); gap != 0 {
			t.Errorf("shards=%d: conservation gap %d after drain, want 0", shards, gap)
		}
	}
}
