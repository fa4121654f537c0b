package scenario

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"switchv2p/internal/harness"
	"switchv2p/internal/simtime"
	"switchv2p/internal/trace"
	"switchv2p/internal/vnet"
)

var wlStub = trace.Workload{Name: "stub"}

// miniDay compresses the production-day structure into a few simulated
// milliseconds so tests run fast while exercising every phase type.
func miniDay(seed int64) Spec {
	return ProductionDay(harness.Config{
		VMs:  512,
		Load: 0.5,
		Seed: seed,
	}, DayOptions{
		DayLength:     4 * simtime.Millisecond,
		FlowBudget:    1200,
		Churn:         12,
		Migrations:    8,
		UpgradeWaves:  2,
		DrainGateways: 2,
	})
}

func TestProductionDayRuns(t *testing.T) {
	rep, err := Run(miniDay(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 6 {
		t.Fatalf("got %d phases, want 6", len(rep.Phases))
	}
	trafficPhases := 0
	for i := range rep.Phases {
		if rep.Phases[i].Flows > 0 {
			trafficPhases++
		}
	}
	if trafficPhases < 4 {
		t.Errorf("only %d phases carried traffic, want >= 4", trafficPhases)
	}
	if rep.Flows == 0 || rep.Final == nil || rep.Final.HostSent == 0 {
		t.Fatalf("scenario moved no traffic: flows=%d", rep.Flows)
	}

	byName := map[string]*PhaseReport{}
	for i := range rep.Phases {
		byName[rep.Phases[i].Name] = &rep.Phases[i]
	}
	if p := byName["midday-churn"]; p.Arrivals != 12 || p.Departures != 12 {
		t.Errorf("midday-churn applied %d/%d arrivals/departures, want 12/12", p.Arrivals, p.Departures)
	}
	if p := byName["migration-storm"]; p.Migrations != 8 {
		t.Errorf("migration-storm applied %d migrations, want 8", p.Migrations)
	}
	if p := byName["gateway-autoscale"]; p.FaultEvents != 2 {
		t.Errorf("gateway-autoscale applied %d fault events, want 2 drains", p.FaultEvents)
	}
	if p := byName["rolling-upgrade"]; p.FaultEvents < 4 {
		t.Errorf("rolling-upgrade applied %d fault events, want >= 4 (restores + waves)", p.FaultEvents)
	}
	for i := range rep.Phases {
		p := &rep.Phases[i]
		if p.Flows > 0 && p.Offload <= -1 {
			t.Errorf("phase %s carried traffic but has no offload measurement", p.Name)
		}
	}
}

// TestCacheChurnCoversEmbeddedCaches: GwCache caches in the network
// through an embedded *core.Scheme, so a phase in which its switches
// looked anything up reports a churn measurement, not the −1 "no
// in-network cache" sentinel that skips the churn SLO.
func TestCacheChurnCoversEmbeddedCaches(t *testing.T) {
	spec := miniDay(7)
	spec.Base.Scheme = harness.SchemeGwCache
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := rep.Final.World.CoreStats(); st == nil || st.Lookups == 0 {
		t.Fatal("no in-network lookups; the test proves nothing")
	}
	if p := rep.Phases[0]; p.Flows == 0 || p.CacheChurn < 0 {
		t.Errorf("phase %s carried %d flows, cache churn %v, want a measurement >= 0",
			p.Name, p.Flows, p.CacheChurn)
	}
}

// TestSameSeedByteIdentical: two runs of the same spec must produce
// byte-identical table and JSON reports.
func TestSameSeedByteIdentical(t *testing.T) {
	var tab [2]bytes.Buffer
	var js [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		rep, err := Run(miniDay(11))
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteTable(&tab[i]); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&js[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(tab[0].Bytes(), tab[1].Bytes()) {
		t.Errorf("same-seed tables diverge:\n--- run 0\n%s\n--- run 1\n%s", tab[0].String(), tab[1].String())
	}
	if !bytes.Equal(js[0].Bytes(), js[1].Bytes()) {
		t.Error("same-seed JSON reports diverge")
	}
	if tab[0].Len() == 0 || !strings.Contains(tab[0].String(), "morning-ramp") {
		t.Error("table output is empty or missing phases")
	}
}

// TestWorkerCountInvariance: RunAll must produce identical reports at
// GOMAXPROCS 1 and 4.
func TestWorkerCountInvariance(t *testing.T) {
	schemes := []string{harness.SchemeSwitchV2P, harness.SchemeNoCache, harness.SchemeGwCache}
	spec := miniDay(3)
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	runtime.GOMAXPROCS(1)
	serial, err := RunAll(spec, schemes)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	parallel, err := RunAll(spec, schemes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range schemes {
		var a, b bytes.Buffer
		if err := serial[i].WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := parallel[i].WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("scheme %s: report differs between GOMAXPROCS 1 and 4", schemes[i])
		}
		if serial[i].Scheme == "" {
			t.Errorf("scheme %s: empty report", schemes[i])
		}
		if serial[i].Final != nil || parallel[i].Final != nil {
			t.Errorf("scheme %s: a batch report keeps its run's harness report and world", schemes[i])
		}
	}
}

func TestValidateErrors(t *testing.T) {
	base := func() Spec { return miniDay(1).withDefaults() }
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no phases", func(s *Spec) { s.Phases = nil }, "no phases"},
		{"workload set", func(s *Spec) { s.Base.Workload = &wlStub }, "Workload"},
		{"negative count", func(s *Spec) { s.Phases[0].Migrations = -1 }, "negative"},
		{"unnamed phase", func(s *Spec) { s.Phases[2].Name = "" }, "no name"},
		{"zero duration", func(s *Spec) { s.Phases[1].Duration = 0 }, "duration"},
		{"drain population", func(s *Spec) { s.Phases[1].Departures = s.Base.VMs }, "population"},
		{"tenant range", func(s *Spec) { s.ChurnTenant = vnet.MaxTenantID + 1 }, "VNI"},
		{"negative load", func(s *Spec) { s.Phases[0].LoadStart = -0.1 }, "load factor"},
		{"NaN load", func(s *Spec) { s.Phases[0].LoadStart = math.NaN() }, "load factor"},
		{"infinite load", func(s *Spec) { s.Phases[1].LoadEnd = math.Inf(1) }, "load factor"},
		{"negative budget", func(s *Spec) { s.FlowBudget = -5 }, "flow budget"},
		{"negative drain grace", func(s *Spec) { s.DrainGrace = -simtime.Microsecond }, "drain grace"},
		{"sharded base", func(s *Spec) { s.Base.Shards = 2 }, "Base.Shards must be 0"},
	}
	for _, tc := range cases {
		s := base()
		tc.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestPlannerRejectsOverdrain(t *testing.T) {
	s := miniDay(1)
	s.Phases[3].DrainGateways = 1000
	if _, err := Run(s); err == nil {
		t.Fatal("Run accepted draining more gateways than exist")
	}
}
