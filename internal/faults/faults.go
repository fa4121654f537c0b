// Package faults is the deterministic fault-injection subsystem: it
// turns a fault scenario — an explicit schedule of typed events, a
// seeded random switch-failure model, or both — into engine state
// changes applied at exact simulation times, and records the applied
// timeline for telemetry and reports.
//
// The package drives the primitive fault switches that internal/simnet
// exposes (SetLinkFault, SetSwitchFault, SetGatewayFault, SetLinkLoss)
// and owns every policy decision above them:
//
//   - when each fault fires (the schedule / the random model),
//   - the cache-loss semantics of a switch failure (the scheme's
//     FlushCache discards the failed switch's V2P state, so a
//     recovered switch re-learns from scratch),
//   - the recorded fault timeline (Injector.Applied and, when a
//     telemetry collector is attached, Collector.Faults).
//
// Determinism: the random model uses a per-instance PRNG seeded from
// Config — never the global math/rand state — and generates events by
// iterating switches in index order, so the same Config always produces
// the same schedule. Probabilistic loss windows consume the engine's
// seeded loss PRNG in event-dispatch order, which is itself
// deterministic. Two runs with the same workload seed and the same
// fault Config are therefore byte-identical.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

// Kind is the type of a fault event.
type Kind uint8

// Fault event kinds. Each Down/Fail/Outage/Start kind has a matching
// recovery kind; a schedule may leave a fault in place past the horizon
// by simply not scheduling the recovery.
const (
	// LinkDown fails the physical link A<->B (both directions).
	LinkDown Kind = iota
	// LinkUp restores the link A<->B.
	LinkUp
	// SwitchFail crashes switch Switch: all incident links black-hole
	// and its V2P cache state is destroyed (Scheme.FlushCache).
	SwitchFail
	// SwitchRecover restarts switch Switch with a cold cache.
	SwitchRecover
	// GatewayOutage darkens the translation gateway instance on host
	// Gateway; senders re-balance onto the survivors.
	GatewayOutage
	// GatewayRecover brings the gateway instance back.
	GatewayRecover
	// LossStart opens a probabilistic loss window on link A<->B: each
	// packet entering the link is dropped with probability LossRate.
	LossStart
	// LossEnd closes the loss window on A<->B.
	LossEnd
)

var kindNames = [...]string{
	LinkDown:       "LinkDown",
	LinkUp:         "LinkUp",
	SwitchFail:     "SwitchFail",
	SwitchRecover:  "SwitchRecover",
	GatewayOutage:  "GatewayOutage",
	GatewayRecover: "GatewayRecover",
	LossStart:      "LossStart",
	LossEnd:        "LossEnd",
}

// String returns the kind's name as it appears in fault timelines.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one scheduled fault. Which fields matter depends on Kind:
// link and loss events use A and B, switch events use Switch, gateway
// events use Gateway, and LossStart additionally uses LossRate.
type Event struct {
	At   simtime.Time
	Kind Kind

	A, B     topology.NodeRef // LinkDown/LinkUp/LossStart/LossEnd
	Switch   int32            // SwitchFail/SwitchRecover
	Gateway  int32            // GatewayOutage/GatewayRecover (host index)
	LossRate float64          // LossStart, in [0,1]
}

// Detail renders the affected entity for timelines ("switch 12",
// "gateway host 3", "link switch 0 <-> switch 8 loss=0.25").
func (ev Event) Detail() string {
	switch ev.Kind {
	case SwitchFail, SwitchRecover:
		return fmt.Sprintf("switch %d", ev.Switch)
	case GatewayOutage, GatewayRecover:
		return fmt.Sprintf("gateway host %d", ev.Gateway)
	case LossStart:
		return fmt.Sprintf("link %v <-> %v loss=%g", ev.A, ev.B, ev.LossRate)
	default:
		return fmt.Sprintf("link %v <-> %v", ev.A, ev.B)
	}
}

// RandomModel generates switch failures as independent alternating
// renewal processes: each modeled switch stays up for an exponential
// time with mean MTBF, fails, stays down for an exponential time with
// mean MTTR, recovers, and repeats until Horizon. All draws come from
// one per-instance PRNG consumed in switch-index order, so the same
// model always expands to the same schedule.
type RandomModel struct {
	// Seed pins the PRNG (0 means seed 1).
	Seed int64
	// MTBF is the mean up time before a failure (required, > 0).
	MTBF simtime.Duration
	// MTTR is the mean down time before recovery (required, > 0).
	MTTR simtime.Duration
	// Horizon bounds event generation (required, > 0). Recoveries past
	// the horizon are still emitted so every failure has its matching
	// recover event.
	Horizon simtime.Time
	// Switches lists the switch indices the model applies to; nil means
	// every switch in the topology.
	Switches []int32
	// MaxEvents caps the generated schedule (0 = 10000) — a guard
	// against degenerate MTBF/MTTR choices, not a tuning knob.
	MaxEvents int
}

// Generate expands the model into an explicit event schedule for topo.
func (m *RandomModel) Generate(topo *topology.Topology) ([]Event, error) {
	if m.MTBF <= 0 || m.MTTR <= 0 {
		return nil, fmt.Errorf("faults: random model needs MTBF > 0 and MTTR > 0 (got %v, %v)", m.MTBF, m.MTTR)
	}
	if m.Horizon <= 0 {
		return nil, fmt.Errorf("faults: random model needs Horizon > 0 (got %v)", m.Horizon)
	}
	seed := m.Seed
	if seed == 0 {
		seed = 1
	}
	maxEvents := m.MaxEvents
	if maxEvents == 0 {
		maxEvents = 10000
	}
	switches := m.Switches
	if switches == nil {
		switches = make([]int32, len(topo.Switches))
		for i := range switches {
			switches[i] = int32(i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var evs []Event
	for _, sw := range switches {
		if sw < 0 || int(sw) >= len(topo.Switches) {
			return nil, fmt.Errorf("faults: random model switch %d out of range [0,%d)", sw, len(topo.Switches))
		}
		t := simtime.Time(0)
		for {
			t = t.Add(simtime.Duration(rng.ExpFloat64() * float64(m.MTBF)))
			if !t.Before(m.Horizon) {
				break
			}
			if len(evs)+2 > maxEvents {
				return nil, fmt.Errorf("faults: random model exceeds %d events; raise MaxEvents or MTBF", maxEvents)
			}
			evs = append(evs, Event{At: t, Kind: SwitchFail, Switch: sw})
			t = t.Add(simtime.Duration(rng.ExpFloat64() * float64(m.MTTR)))
			evs = append(evs, Event{At: t, Kind: SwitchRecover, Switch: sw})
		}
	}
	return evs, nil
}

// Config describes one run's fault scenario: an explicit schedule, a
// random model, or both (the generated events are merged into the
// schedule). The zero value means no faults.
type Config struct {
	// Schedule is the explicit event list, in any order.
	Schedule []Event
	// Random, when non-nil, generates additional switch failures.
	Random *RandomModel
	// LossSeed seeds the engine PRNG behind probabilistic loss windows
	// (0 = seed 1). Irrelevant unless the schedule opens a loss window.
	LossSeed int64
}

// Empty reports whether the config injects nothing.
func (c *Config) Empty() bool {
	return c == nil || (len(c.Schedule) == 0 && c.Random == nil)
}

// validate checks one event against the topology. Link adjacency is
// checked again by the engine at apply time; here we catch everything
// checkable before the run starts.
func validate(ev Event, topo *topology.Topology) error {
	badNode := func(r topology.NodeRef) bool {
		switch r.Kind {
		case topology.KindSwitch:
			return r.Idx < 0 || int(r.Idx) >= len(topo.Switches)
		case topology.KindHost:
			return r.Idx < 0 || int(r.Idx) >= len(topo.Hosts)
		}
		return true
	}
	switch ev.Kind {
	case LinkDown, LinkUp, LossStart, LossEnd:
		if badNode(ev.A) || badNode(ev.B) {
			return fmt.Errorf("faults: %s at %v references unknown node (%v, %v)", ev.Kind, ev.At, ev.A, ev.B)
		}
		if ev.Kind == LossStart && !(ev.LossRate >= 0 && ev.LossRate <= 1) { // NaN fails both
			return fmt.Errorf("faults: LossStart at %v rate %v outside [0,1]", ev.At, ev.LossRate)
		}
	case SwitchFail, SwitchRecover:
		if ev.Switch < 0 || int(ev.Switch) >= len(topo.Switches) {
			return fmt.Errorf("faults: %s at %v switch %d out of range [0,%d)", ev.Kind, ev.At, ev.Switch, len(topo.Switches))
		}
	case GatewayOutage, GatewayRecover:
		if ev.Gateway < 0 || int(ev.Gateway) >= len(topo.Hosts) {
			return fmt.Errorf("faults: %s at %v host %d out of range [0,%d)", ev.Kind, ev.At, ev.Gateway, len(topo.Hosts))
		}
		if !topo.Hosts[ev.Gateway].Gateway {
			return fmt.Errorf("faults: %s at %v: host %d is not a translation gateway", ev.Kind, ev.At, ev.Gateway)
		}
	default:
		return fmt.Errorf("faults: unknown event kind %d at %v", ev.Kind, ev.At)
	}
	if ev.At < 0 {
		return fmt.Errorf("faults: %s scheduled at negative time %v", ev.Kind, ev.At)
	}
	return nil
}

// compile validates cfg against topo, expands the random model, and
// returns the merged schedule sorted by time (stable, so same-time
// events keep their schedule-then-generated order).
func compile(cfg *Config, topo *topology.Topology) ([]Event, error) {
	var errs []error
	evs := make([]Event, 0, len(cfg.Schedule))
	evs = append(evs, cfg.Schedule...)
	if cfg.Random != nil {
		gen, err := cfg.Random.Generate(topo)
		if err != nil {
			return nil, err
		}
		evs = append(evs, gen...)
	}
	for _, ev := range evs {
		if err := validate(ev, topo); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })
	return evs, nil
}
