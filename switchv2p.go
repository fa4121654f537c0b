// Package switchv2p is a from-scratch Go implementation of SwitchV2P
// ("In-Network Address Caching for Virtual Networks", SIGCOMM 2024): an
// in-network, data-plane protocol that caches virtual-to-physical (V2P)
// address mappings inside network switches, learning them transparently
// from passing traffic.
//
// The package is a façade over the full simulation stack:
//
//   - a discrete-event, packet-level data center network simulator
//     (fat-tree topologies, bandwidth/delay links, shared-buffer
//     switches, ECMP, translation gateways);
//   - the SwitchV2P protocol (topology-aware admission policies,
//     learning packets, cache spillover, core promotion, lazy
//     invalidation) and all the paper's baselines (NoCache,
//     LocalLearning, GwCache, Bluebird, OnDemand, Direct, Controller);
//   - workload generators matching the paper's five traces;
//   - experiment harnesses that regenerate every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	report, err := switchv2p.Run(switchv2p.Config{
//		Scheme:        switchv2p.SchemeSwitchV2P,
//		TraceName:     "hadoop",
//		CacheFraction: 0.5,
//	})
//	if err != nil { ... }
//	fmt.Printf("hit rate %.1f%%, avg FCT %v\n", 100*report.HitRate, report.Summary.AvgFCT)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package switchv2p

import (
	"time"

	"switchv2p/internal/faults"
	"switchv2p/internal/harness"
	"switchv2p/internal/p4model"
	"switchv2p/internal/scenario"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/telemetry"
	"switchv2p/internal/topology"
	"switchv2p/internal/trace"
	"switchv2p/internal/transport"
)

// Core configuration and result types (aliased from the internal
// implementation so downstream users never import internal paths).
type (
	// Config describes one simulation run.
	Config = harness.Config
	// Report is the outcome of a run.
	Report = harness.Report
	// World is a fully assembled simulation, for advanced use.
	World = harness.World

	// TopologyConfig parameterizes the fat-tree underlay.
	TopologyConfig = topology.Config
	// TraceConfig parameterizes workload generation.
	TraceConfig = trace.Config
	// Workload is a generated set of flows.
	Workload = trace.Workload
	// FlowSpec describes a single flow.
	FlowSpec = transport.FlowSpec
	// FlowRecord is a measured flow outcome.
	FlowRecord = transport.FlowRecord
	// Summary aggregates flow records.
	Summary = transport.Summary

	// SweepPoint is one measurement of a cache-size sweep (Fig. 5/6).
	SweepPoint = harness.SweepPoint
	// GatewayPoint is one measurement of a gateway-reduction sweep (Fig. 9).
	GatewayPoint = harness.GatewayPoint
	// TopologyPoint is one measurement of a topology-scaling sweep (Fig. 10).
	TopologyPoint = harness.TopologyPoint
	// MigrationConfig parameterizes the VM-migration experiment (§5.2).
	MigrationConfig = harness.MigrationConfig
	// MigrationResult is one row of Table 4.
	MigrationResult = harness.MigrationResult

	// FaultsConfig configures deterministic fault injection on a run
	// (set Config.Faults to a non-nil value).
	FaultsConfig = faults.Config
	// FaultEvent is one scheduled fault (link/switch/gateway failure or
	// recovery, loss window open/close).
	FaultEvent = faults.Event
	// FaultKind is the type of a fault event.
	FaultKind = faults.Kind
	// FaultRandomModel generates switch failures from seeded MTBF/MTTR
	// exponentials.
	FaultRandomModel = faults.RandomModel
	// FaultInjector is a run's attached injector (World.Injector).
	FaultInjector = faults.Injector
	// NodeRef identifies a switch or host for link-fault endpoints.
	NodeRef = topology.NodeRef

	// Scenario is a long-horizon, multi-phase operational scenario
	// (diurnal load, tenant churn, migration storms, gateway
	// autoscaling, rolling upgrades) with per-phase SLO probes.
	Scenario = scenario.Spec
	// ScenarioPhase is one contiguous segment of a scenario timeline.
	ScenarioPhase = scenario.Phase
	// ScenarioSLO declares a phase's service-level objectives.
	ScenarioSLO = scenario.SLO
	// ScenarioReport is the per-phase SLO report of a scenario run.
	ScenarioReport = scenario.Report
	// ScenarioPhaseReport is one phase's measured outcome.
	ScenarioPhaseReport = scenario.PhaseReport
	// DayOptions sizes the canonical ProductionDay scenario.
	DayOptions = scenario.DayOptions

	// TelemetryOptions enables the observability subsystem on a run
	// (set Config.Telemetry to a non-nil value).
	TelemetryOptions = telemetry.Options
	// TelemetryCollector holds a run's collected telemetry
	// (Report.Telemetry).
	TelemetryCollector = telemetry.Collector
	// TelemetryTimeline is the sampled time-series data.
	TelemetryTimeline = telemetry.Timeline
	// TelemetrySeries is one named series within a timeline.
	TelemetrySeries = telemetry.Series
	// EngineProfile reports event-loop throughput (events/sec, heap
	// depth, wall clock per simulated second).
	EngineProfile = simnet.EngineProfile

	// Time is a simulated instant (nanoseconds since run start).
	Time = simtime.Time
	// Duration is a simulated time span.
	Duration = simtime.Duration
)

// FromStd converts a wall-clock time.Duration into a simulated
// Duration. This is the only sanctioned crossing from wall-clock to
// simulated time units; bare Duration(d) conversions are rejected by
// the v2plint simtimeunits analyzer.
func FromStd(d time.Duration) Duration { return simtime.FromStd(d) }

// Fault event kinds (FaultEvent.Kind).
const (
	LinkDown       = faults.LinkDown
	LinkUp         = faults.LinkUp
	SwitchFail     = faults.SwitchFail
	SwitchRecover  = faults.SwitchRecover
	GatewayOutage  = faults.GatewayOutage
	GatewayRecover = faults.GatewayRecover
	LossStart      = faults.LossStart
	LossEnd        = faults.LossEnd
)

// SwitchRef and HostRef build link-fault endpoints.
func SwitchRef(i int32) NodeRef { return topology.SwitchRef(i) }

// HostRef returns a NodeRef for host index i.
func HostRef(i int32) NodeRef { return topology.HostRef(i) }

// Scheme names accepted in Config.Scheme.
const (
	SchemeSwitchV2P     = harness.SchemeSwitchV2P
	SchemeNoCache       = harness.SchemeNoCache
	SchemeLocalLearning = harness.SchemeLocalLearning
	SchemeGwCache       = harness.SchemeGwCache
	SchemeBluebird      = harness.SchemeBluebird
	SchemeOnDemand      = harness.SchemeOnDemand
	SchemeDirect        = harness.SchemeDirect
	SchemeController    = harness.SchemeController
)

// AllSchemes lists every supported scheme name.
func AllSchemes() []string { return append([]string(nil), harness.AllSchemes...) }

// Run builds and runs one experiment.
func Run(cfg Config) (*Report, error) { return harness.Run(cfg) }

// Build assembles a simulation without running it, for callers that
// want to schedule extra events (migrations, custom flows) first.
func Build(cfg Config) (*World, error) { return harness.Build(cfg) }

// CacheSizeSweep reproduces the Fig. 5/6 experiment structure.
func CacheSizeSweep(base Config, fractions []float64, schemes []string) ([]SweepPoint, error) {
	return harness.CacheSizeSweep(base, fractions, schemes)
}

// GatewaySweep reproduces Fig. 9.
func GatewaySweep(base Config, gatewayCounts []int, schemes []string) ([]GatewayPoint, error) {
	return harness.GatewaySweep(base, gatewayCounts, schemes)
}

// Migration runs the §5.2 incast + VM-migration experiment.
func Migration(cfg MigrationConfig) (*MigrationResult, error) {
	return harness.Migration(cfg)
}

// DefaultMigrationConfig returns the paper's §5.2 parameters.
func DefaultMigrationConfig(base Config) MigrationConfig {
	return harness.DefaultMigrationConfig(base)
}

// ProductionDay builds the canonical simulated operational day:
// morning diurnal ramp, midday tenant churn, a migration storm, gateway
// fleet autoscaling, a rolling fabric upgrade, and an evening drain.
func ProductionDay(base Config, o DayOptions) Scenario { return scenario.ProductionDay(base, o) }

// RunScenario plans and executes a scenario; same seed, same report,
// byte for byte.
func RunScenario(s Scenario) (*ScenarioReport, error) { return scenario.Run(s) }

// RunScenarioAll runs a scenario once per scheme (nil = AllSchemes)
// through the harness's RunAll pool, as many at once as GOMAXPROCS
// allows; reports come back in scheme order, the same at any GOMAXPROCS.
// Their Final is nil: a batch keeps phase reports, not simulations.
func RunScenarioAll(s Scenario, schemes []string) ([]*ScenarioReport, error) {
	return scenario.RunAll(s, schemes)
}

// FT8 returns the paper's FT8-10K topology configuration (Table 3).
func FT8() TopologyConfig { return topology.FT8() }

// FT16 returns the paper's FT16-400K topology configuration (Table 3).
func FT16() TopologyConfig { return topology.FT16() }

// P4Utilization computes the Table 6 per-stage switch resource
// utilization from the analytic Tofino pipeline model.
func P4Utilization() (p4model.Utilization, error) { return p4model.Table6() }
