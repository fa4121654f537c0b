package scenario

import (
	"fmt"

	"switchv2p/internal/harness"
)

// counterSnap is a point-in-time copy of the engine and scheme counters
// the per-phase SLO probes difference. Snapshots are taken inside the
// simulation, by events scheduled at phase boundaries, so phase
// attribution is exact regardless of how long the run is.
type counterSnap struct {
	hostSent, gwPkts   int64
	drops, faultDrops  int64
	staleLookups       int64 // gateway lookups for departed VIPs
	lookups, evictions int64
}

type opCounts struct{ arrivals, departures, migrations int }

type runState struct {
	snaps   []counterSnap // snaps[0] at t=0, snaps[k+1] at end of phase k
	applied []opCounts    // churn operations actually executed, per phase
	opErr   error
}

func takeSnap(w *harness.World) counterSnap {
	c := &w.Engine.C
	s := counterSnap{
		hostSent:     c.HostSent,
		gwPkts:       c.GatewayPackets,
		drops:        c.Drops,
		faultDrops:   c.FaultDrops,
		staleLookups: c.GatewayUnknownVIP,
	}
	if st := w.CoreStats(); st != nil {
		s.lookups = st.Lookups
		for _, e := range st.EvictionsByLayer {
			s.evictions += e
		}
	}
	return s
}

// schedule installs the planned churn operations and the phase-boundary
// counter snapshots on the event queue.
func schedule(spec Spec, w *harness.World, pl *plan) *runState {
	rs := &runState{
		snaps:   make([]counterSnap, len(spec.Phases)+1),
		applied: make([]opCounts, len(spec.Phases)),
	}
	rs.snaps[0] = takeSnap(w) // t=0 baseline (all zeros, but uniform)

	for i := range pl.ops {
		op := pl.ops[i]
		w.Engine.Q.At(op.at, func() {
			var err error
			switch op.kind {
			case opArrive:
				err = w.Net.PlaceVM(op.vip, op.host, spec.ChurnTenant)
				rs.applied[op.phase].arrivals++
			case opDepart:
				err = w.Net.RemoveVM(op.vip)
				rs.applied[op.phase].departures++
			case opMigrate:
				err = w.Net.Migrate(op.vip, op.host)
				rs.applied[op.phase].migrations++
			}
			if err != nil && rs.opErr == nil {
				rs.opErr = fmt.Errorf("scenario %q: churn op at %v: %w", spec.Name, op.at, err)
			}
		})
	}
	for k := range spec.Phases {
		k := k
		w.Engine.Q.At(pl.windows[k].end, func() {
			rs.snaps[k+1] = takeSnap(w)
		})
	}
	return rs
}

// Run plans, builds and executes the scenario, returning the per-phase
// SLO report. Same spec, same seed → byte-identical report.
func Run(spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	w, pl, err := build(spec)
	if err != nil {
		return nil, err
	}
	rs := schedule(spec, w, pl)

	if err := w.Run(w.Cfg.Horizon); err != nil {
		return nil, err
	}
	if rs.opErr != nil {
		return nil, rs.opErr
	}
	return assemble(spec, w, pl, rs), nil
}

// RunAll runs the scenario once per scheme (spec.Base.Scheme is
// overridden) through harness.RunAll. Reports come back in scheme order;
// each run is seeded only from its own config, so results do not depend
// on GOMAXPROCS. A batch keeps each run's phase report but not its
// simulation: the reports' Final is nil (Run returns it).
func RunAll(spec Spec, schemes []string) ([]*Report, error) {
	if len(schemes) == 0 {
		schemes = harness.AllSchemes
	}
	return harness.RunAll(schemes, func(scheme string) (*Report, error) {
		s := spec
		s.Base.Scheme = scheme
		rep, err := Run(s)
		if err != nil {
			return nil, err
		}
		rep.Final = nil
		return rep, nil
	})
}
