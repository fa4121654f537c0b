package faults

import (
	"errors"
	"fmt"

	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/telemetry"
	"switchv2p/internal/topology"
)

// Injector owns one run's fault scenario: the compiled event schedule
// and the timeline of events actually applied. Build with New, wire
// with Attach before Engine.Run.
type Injector struct {
	// Applied is the timeline of events applied so far, in application
	// order. Populated while the simulation runs.
	Applied []Event

	events []Event
	errs   []error
	col    *telemetry.Collector
}

// New compiles cfg against topo: the random model (if any) is expanded,
// every event is validated, and the merged schedule is sorted by time.
// A nil or empty cfg yields an injector that does nothing.
func New(cfg *Config, topo *topology.Topology) (*Injector, error) {
	in := &Injector{}
	if cfg.Empty() {
		return in, nil
	}
	evs, err := compile(cfg, topo)
	if err != nil {
		return nil, err
	}
	in.events = evs
	return in, nil
}

// Attach registers every scheduled event on the engine's queue and, if
// the config uses loss windows, seeds the engine's loss PRNG. col may
// be nil (no fault timeline is recorded). Call once, before Engine.Run.
func (in *Injector) Attach(e *simnet.Engine, cfg *Config, col *telemetry.Collector) {
	in.col = col
	if cfg != nil && !cfg.Empty() {
		seed := cfg.LossSeed
		if seed == 0 {
			seed = 1
		}
		e.SetLossSeed(seed)
	}
	for i := range in.events {
		ev := in.events[i]
		// AtBarrier degrades to a plain queue event on the serial engine;
		// sharded, it applies the fault at a synchronization barrier so
		// every shard observes it atomically.
		e.AtBarrier(ev.At, func() { in.apply(e, ev) })
	}
}

// apply executes one fault event against the engine. Application errors
// (e.g. a LinkDown between non-adjacent nodes) are collected rather
// than fatal — inspect them with Err after the run.
func (in *Injector) apply(e *simnet.Engine, ev Event) {
	var err error
	switch ev.Kind {
	case LinkDown:
		err = e.SetLinkFault(ev.A, ev.B, true)
	case LinkUp:
		err = e.SetLinkFault(ev.A, ev.B, false)
	case SwitchFail:
		err = e.SetSwitchFault(ev.Switch, true)
		if err == nil {
			// The crash destroys the switch's V2P state: a recovered
			// switch starts cold and re-learns from passing traffic.
			// Flushing at fail time is equivalent to flushing at
			// recovery — no scheme hook runs while the switch is down.
			e.Scheme.FlushCache(ev.Switch)
		}
	case SwitchRecover:
		err = e.SetSwitchFault(ev.Switch, false)
	case GatewayOutage:
		err = e.SetGatewayFault(ev.Gateway, true)
	case GatewayRecover:
		err = e.SetGatewayFault(ev.Gateway, false)
	case LossStart:
		err = e.SetLinkLoss(ev.A, ev.B, ev.LossRate)
	case LossEnd:
		err = e.SetLinkLoss(ev.A, ev.B, 0)
	default:
		err = fmt.Errorf("faults: unknown event kind %d", ev.Kind)
	}
	if err != nil {
		in.errs = append(in.errs, fmt.Errorf("faults: at %v: %w", e.Now(), err))
		return
	}
	in.Applied = append(in.Applied, ev)
	if in.col != nil {
		in.col.RecordFault(float64(e.Now())/float64(simtime.Microsecond), ev.Kind.String(), ev.Detail())
	}
}

// Err returns every error the injector hit while applying events, or
// nil. Check it after Engine.Run: a non-nil error means part of the
// configured scenario was not applied.
func (in *Injector) Err() error { return errors.Join(in.errs...) }
