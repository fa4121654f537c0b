package main

import (
	"switchv2p/internal/harness"
	"switchv2p/internal/scenario"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

// workload is one named set of inputs. The names are the identifiers
// BENCHMARK.json lists and later issues cite; README.md records why each
// exists and which layer it stresses.
type workload struct {
	name string
	// base is the harness configuration; Seed is filled in per run.
	base harness.Config
	// day, when non-nil, runs base through scenario.Run as a
	// ProductionDay instead of harness.Build + Engine.Run.
	day *scenario.DayOptions
}

// dayDrainGrace lets every flow finish after the day ends. A flow that
// loses a window of packets to a switch outage recovers one hole per 5 ms
// RTO (the transport has no SACK), which on some seeds takes seconds of
// simulated time; the planner's 5 ms default grace would cut it off and
// count it as failed. Idle simulated time costs no host time.
const dayDrainGrace = 20 * simtime.Second

// hadoopFT8 is the paper's Fig. 5a point: long flows, so per-hop
// forwarding does nearly all the work and flow set-up almost none.
// MaxFlows is left uncapped so Duration alone fixes the offered bytes at
// Load 0.30 (about 3300 flows, 110 packets each).
func hadoopFT8(scheme string, shards int) harness.Config {
	return harness.Config{
		Topo: topology.FT8(), VMs: 1024, Scheme: scheme, TraceName: "hadoop",
		Load: 0.30, Duration: 500 * simtime.Microsecond, CacheFraction: 0.5,
		Shards: shards,
	}
}

var workloads = []workload{
	{name: "hadoop-steady", base: hadoopFT8(harness.SchemeSwitchV2P, 0)},
	{name: "hadoop-nocache", base: hadoopFT8(harness.SchemeNoCache, 0)},
	{name: "hadoop-sharded", base: hadoopFT8(harness.SchemeSwitchV2P, 2)},
	{name: "alibaba-ft16", base: harness.Config{
		Topo: topology.FT16(), VMs: 400000, Scheme: harness.SchemeSwitchV2P, TraceName: "alibaba",
		Load: 0.30, Duration: 8 * simtime.Millisecond, MaxFlows: 40000, CacheFraction: 0.1,
	}},
	{name: "production-day", base: hadoopFT8(harness.SchemeSwitchV2P, 0), day: &scenario.DayOptions{
		DayLength: 96 * simtime.Millisecond, FlowBudget: 4000,
		Churn: 96, Migrations: 64, UpgradeWaves: 2, DrainGateways: 2,
	}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tiny shrinks the workload to a few hundred flows for the smoke test:
// same schemes, traces and code paths, milliseconds of host time.
func (w workload) tiny() workload {
	w.base.MaxFlows = 300
	w.base.Duration /= 10
	if w.base.VMs > 8192 {
		w.base.VMs = 8192
	}
	if w.day != nil {
		d := *w.day
		d.DayLength /= 8
		d.FlowBudget = 300
		d.Churn, d.Migrations = 8, 4
		w.day = &d
	}
	return w
}

// spec builds the production-day scenario for the seed.
func (w workload) spec(seed int64) scenario.Spec {
	base := w.base
	base.Seed = seed
	spec := scenario.ProductionDay(base, *w.day)
	spec.DrainGrace = dayDrainGrace
	return spec
}
