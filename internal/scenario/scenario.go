// Package scenario sequences long-horizon, multi-phase operational
// scenarios over the simulator: diurnal load curves modulating the
// trace generators, tenant arrival/departure churn, VM migration
// storms, gateway fleet autoscaling (drain/restore mid-run), and
// rolling switch upgrades as scheduled fail/recover waves. Each phase
// declares SLO probes — p99 first-packet latency, gateway offload,
// cache churn — evaluated per phase from counter deltas taken at phase
// boundaries inside the simulation.
//
// Everything is planned up front from the spec's seed: the phase
// timeline, every churn/migration operation, and the fault schedule are
// deterministic functions of (Spec, Base.Seed), so same-seed runs
// produce byte-identical reports at any worker count.
//
// Long horizons ride on the streaming telemetry collector
// (internal/telemetry StreamOptions): hours of simulated time sample in
// constant memory while exporters receive the full time series
// incrementally.
package scenario

import (
	"fmt"
	"math"

	"switchv2p/internal/harness"
	"switchv2p/internal/simtime"
	"switchv2p/internal/vnet"
)

// SLO declares per-phase service-level objectives. Zero values disable
// the corresponding check.
type SLO struct {
	// MaxP99FirstPacket bounds the phase's p99 first-packet latency over
	// flows that started inside the phase.
	MaxP99FirstPacket simtime.Duration
	// MinOffload bounds from below the fraction of the phase's
	// host-sent packets kept off the translation gateways (the paper's
	// hit-rate metric, windowed to the phase). Skipped when the phase
	// carried no traffic.
	MinOffload float64
	// MaxCacheChurn bounds cache evictions per lookup over the phase —
	// a timescale-free churn measure (0.5 = one eviction per two
	// lookups). Skipped for schemes without in-network caches.
	MaxCacheChurn float64
}

// Phase is one contiguous segment of the scenario timeline.
type Phase struct {
	Name     string
	Duration simtime.Duration

	// LoadStart/LoadEnd scale the base offered load linearly across the
	// phase — the diurnal curve. Both zero leaves the phase quiet.
	LoadStart, LoadEnd float64

	// Arrivals places that many new tenant VMs (pre-reserved VIPs) at
	// deterministic times inside the phase; Departures removes that many
	// existing VMs. Departing VMs receive no traffic from their
	// departure phase onward.
	Arrivals, Departures int

	// Migrations schedules a migration storm: that many VMs bulk-remap
	// to new hosts across the middle of the phase, generating
	// invalidation pressure on warm caches.
	Migrations int

	// DrainGateways outages that many additional gateway instances at
	// phase start (fleet scale-down); RestoreGateways recovers that many
	// previously drained instances at phase start (scale-up).
	DrainGateways, RestoreGateways int

	// UpgradeWaves rolls a fail/recover upgrade over the fabric (spine
	// and core) switches in that many waves spread across the phase;
	// each switch is down for UpgradeDowntime (default: a quarter of the
	// wave spacing). A failed switch loses its V2P cache and re-learns
	// from traffic after recovery.
	UpgradeWaves    int
	UpgradeDowntime simtime.Duration

	SLO SLO
}

// Spec is a complete scenario: a harness base configuration plus the
// phase timeline.
type Spec struct {
	Name string
	// Base supplies the topology, VM population, scheme, trace family,
	// base load and seed. Base.Workload and Base.Faults must be unset:
	// the planner owns both.
	Base   harness.Config
	Phases []Phase

	// FlowBudget caps total generated flows, distributed over phases
	// proportionally to their mean load so the diurnal shape survives
	// the cap (0 = DefaultFlowBudget).
	FlowBudget int

	// ChurnTenant is the VNI arrivals belong to (0 = DefaultChurnTenant;
	// arrivals always land in a non-default VPC so churn exercises the
	// multitenancy path).
	ChurnTenant vnet.TenantID

	// DrainGrace extends the horizon past the last phase so in-flight
	// flows can complete (0 = DefaultDrainGrace).
	DrainGrace simtime.Duration
}

// Defaults for Spec zero values.
const (
	DefaultFlowBudget  = 48000
	DefaultChurnTenant = vnet.TenantID(2)
	DefaultDrainGrace  = 5 * simtime.Millisecond
)

func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "scenario"
	}
	s.Base = s.Base.WithDefaults()
	if s.FlowBudget == 0 {
		s.FlowBudget = DefaultFlowBudget
	}
	if s.ChurnTenant == 0 {
		s.ChurnTenant = DefaultChurnTenant
	}
	if s.DrainGrace == 0 {
		s.DrainGrace = DefaultDrainGrace
	}
	return s
}

// meanLoad is the phase's average load factor under the linear ramp.
func (p *Phase) meanLoad() float64 { return (p.LoadStart + p.LoadEnd) / 2 }

// Validate checks the spec (after defaults are applied).
func (s Spec) Validate() error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %q: no phases", s.Name)
	}
	if s.Base.Workload != nil {
		return fmt.Errorf("scenario %q: Base.Workload must be unset (the planner generates traffic)", s.Name)
	}
	if !s.Base.Faults.Empty() {
		return fmt.Errorf("scenario %q: Base.Faults must be unset (the planner owns the fault schedule)", s.Name)
	}
	if s.ChurnTenant > vnet.MaxTenantID {
		return fmt.Errorf("scenario %q: churn tenant %d exceeds the VNI space", s.Name, s.ChurnTenant)
	}
	if s.FlowBudget < 0 {
		return fmt.Errorf("scenario %q: negative flow budget %d", s.Name, s.FlowBudget)
	}
	if s.DrainGrace < 0 {
		return fmt.Errorf("scenario %q: negative drain grace %v", s.Name, s.DrainGrace)
	}
	departures := 0
	for i := range s.Phases {
		p := &s.Phases[i]
		if p.Name == "" {
			return fmt.Errorf("scenario %q: phase %d has no name", s.Name, i)
		}
		if p.Duration <= 0 {
			return fmt.Errorf("scenario %q: phase %q has non-positive duration", s.Name, p.Name)
		}
		// Written as a positive range check so that NaN, for which every
		// comparison is false, fails it too.
		for _, f := range []float64{p.LoadStart, p.LoadEnd} {
			if !(f >= 0 && f < math.Inf(1)) {
				return fmt.Errorf("scenario %q: phase %q has load factor %v outside [0, +Inf)", s.Name, p.Name, f)
			}
		}
		if p.Arrivals < 0 || p.Departures < 0 || p.Migrations < 0 ||
			p.DrainGateways < 0 || p.RestoreGateways < 0 || p.UpgradeWaves < 0 {
			return fmt.Errorf("scenario %q: phase %q has a negative event count", s.Name, p.Name)
		}
		departures += p.Departures
	}
	if departures >= s.Base.VMs {
		return fmt.Errorf("scenario %q: %d departures would drain the whole %d-VM population",
			s.Name, departures, s.Base.VMs)
	}
	return nil
}

// DayOptions sizes a ProductionDay scenario.
type DayOptions struct {
	// DayLength is the total simulated horizon (0 = 4 simulated hours).
	// CI smokes compress the same phase structure into milliseconds.
	DayLength simtime.Duration
	// FlowBudget caps total flows across the day (0 = DefaultFlowBudget).
	FlowBudget int
	// Churn is the number of tenant arrivals (and departures) in the
	// midday-churn phase (0 = 64).
	Churn int
	// Migrations sizes the migration storm (0 = 48).
	Migrations int
	// UpgradeWaves is the number of rolling-upgrade waves (0 = 4).
	UpgradeWaves int
	// DrainGateways is how many gateway instances the autoscale phase
	// drains (0 = 2); they are restored when the upgrade phase begins.
	DrainGateways int
}

// ProductionDay builds the canonical long-horizon scenario: a simulated
// operational day with a morning diurnal ramp, midday tenant churn, a
// migration storm, gateway fleet autoscaling, a rolling fabric upgrade,
// and an evening drain. Phase durations are fixed fractions of
// DayLength, so the same structure scales from a CI smoke to a
// multi-hour soak.
func ProductionDay(base harness.Config, o DayOptions) Spec {
	day := o.DayLength
	if day <= 0 {
		day = 4 * 3600 * simtime.Second
	}
	churn := o.Churn
	if churn <= 0 {
		churn = 64
	}
	migrations := o.Migrations
	if migrations <= 0 {
		migrations = 48
	}
	waves := o.UpgradeWaves
	if waves <= 0 {
		waves = 4
	}
	drain := o.DrainGateways
	if drain <= 0 {
		drain = 2
	}
	frac := func(sixteenths int64) simtime.Duration { return day / 16 * simtime.Duration(sixteenths) }
	return Spec{
		Name:       "production-day",
		Base:       base,
		FlowBudget: o.FlowBudget,
		Phases: []Phase{
			{
				Name: "morning-ramp", Duration: frac(3),
				LoadStart: 0.1, LoadEnd: 1.0,
				SLO: SLO{MaxP99FirstPacket: simtime.Millisecond, MinOffload: 0.3, MaxCacheChurn: 0.5},
			},
			{
				Name: "midday-churn", Duration: frac(4),
				LoadStart: 1.0, LoadEnd: 1.0,
				Arrivals: churn, Departures: churn,
				SLO: SLO{MaxP99FirstPacket: simtime.Millisecond, MinOffload: 0.5, MaxCacheChurn: 0.5},
			},
			{
				Name: "migration-storm", Duration: frac(2),
				LoadStart: 0.8, LoadEnd: 0.8,
				Migrations: migrations,
				SLO:        SLO{MaxP99FirstPacket: 2 * simtime.Millisecond, MinOffload: 0.5, MaxCacheChurn: 0.5},
			},
			{
				Name: "gateway-autoscale", Duration: frac(2),
				LoadStart: 0.6, LoadEnd: 0.6,
				DrainGateways: drain,
				SLO:           SLO{MaxP99FirstPacket: 2 * simtime.Millisecond, MinOffload: 0.5, MaxCacheChurn: 0.5},
			},
			{
				Name: "rolling-upgrade", Duration: frac(3),
				LoadStart: 0.5, LoadEnd: 0.5,
				RestoreGateways: drain, UpgradeWaves: waves,
				SLO: SLO{MaxP99FirstPacket: 5 * simtime.Millisecond, MinOffload: 0.4, MaxCacheChurn: 0.5},
			},
			{
				Name: "evening-drain", Duration: frac(2),
				LoadStart: 0.6, LoadEnd: 0.1,
				SLO: SLO{MaxP99FirstPacket: simtime.Millisecond, MinOffload: 0.5, MaxCacheChurn: 0.5},
			},
		},
	}
}
