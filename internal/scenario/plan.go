package scenario

import (
	"fmt"
	"math"
	"math/rand"

	"switchv2p/internal/faults"
	"switchv2p/internal/harness"
	"switchv2p/internal/netaddr"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/trace"
)

// The planner turns a Spec into a concrete, fully deterministic run: a
// phase timeline, a fault schedule (gateway drains/restores, rolling
// upgrade waves), a churn operation list (arrivals, departures,
// migrations) and the per-phase traffic. All randomness comes from a
// single PRNG seeded off Base.Seed, drawn in a fixed order.

type opKind uint8

const (
	opArrive opKind = iota
	opDepart
	opMigrate
)

type plannedOp struct {
	at    simtime.Time
	kind  opKind
	vip   netaddr.VIP
	host  int32 // arrival host / migration target
	phase int
}

type phaseWindow struct{ start, end simtime.Time }

func (w phaseWindow) duration() simtime.Duration { return simtime.Duration(w.end - w.start) }

// plan is the planner's output: everything the runner schedules.
type plan struct {
	windows []phaseWindow
	horizon simtime.Time // end of the last phase (grace excluded)
	ops     []plannedOp
	flows   []int // flows planned per phase
}

// vmLife tracks one VM across the scenario timeline during planning.
type vmLife struct {
	vip      netaddr.VIP
	bornAt   simtime.Time // 0 for the initial population
	diesAt   simtime.Time // simtime.Never when the VM never departs
	host     int32        // plan-time host (placement, arrival target or migration target)
	migrated bool
}

// build assembles the world and the plan. The order matters: the fault
// schedule must exist before harness.Build (the injector attaches
// there), while churn and traffic planning need the built world (VIP
// reservations, placements).
func build(spec Spec) (*harness.World, *plan, error) {
	base := spec.Base
	topo, err := topology.New(base.Topo)
	if err != nil {
		return nil, nil, err
	}

	pl := &plan{
		windows: make([]phaseWindow, len(spec.Phases)),
		flows:   make([]int, len(spec.Phases)),
	}
	var t simtime.Time
	for k := range spec.Phases {
		pl.windows[k] = phaseWindow{start: t, end: t + simtime.Time(spec.Phases[k].Duration)}
		t = pl.windows[k].end
	}
	pl.horizon = t

	sched, err := planFaults(spec, topo, pl)
	if err != nil {
		return nil, nil, err
	}

	cfg := base
	cfg.Workload = &trace.Workload{Name: spec.Name} // planner-owned; flows added below
	if len(sched.Schedule) > 0 {
		cfg.Faults = &faults.Config{Schedule: sched.Schedule}
	}
	cfg.Horizon = pl.horizon + simtime.Time(spec.DrainGrace)
	w, err := harness.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := planPopulation(spec, w, pl); err != nil {
		return nil, nil, err
	}
	return w, pl, nil
}

// planFaults compiles gateway autoscaling and rolling-upgrade phases
// into a deterministic fault schedule. Drains take gateways from the
// front of the topology's gateway list (each at most once); restores
// recover the most recently drained.
func planFaults(spec Spec, topo *topology.Topology, pl *plan) (faults.Config, error) {
	var cfg faults.Config
	gws := topo.Gateways()
	var drained []int32
	nextFresh := 0

	var fabric []int32
	for _, sw := range topo.Switches {
		if sw.Role == topology.RoleSpine || sw.Role == topology.RoleCore {
			fabric = append(fabric, sw.Idx)
		}
	}

	for k := range spec.Phases {
		p := &spec.Phases[k]
		start := pl.windows[k].start

		if p.RestoreGateways > 0 {
			if p.RestoreGateways > len(drained) {
				return cfg, fmt.Errorf("scenario %q: phase %q restores %d gateways but only %d are drained",
					spec.Name, p.Name, p.RestoreGateways, len(drained))
			}
			for i := 0; i < p.RestoreGateways; i++ {
				g := drained[len(drained)-1]
				drained = drained[:len(drained)-1]
				cfg.Schedule = append(cfg.Schedule, faults.Event{At: start, Kind: faults.GatewayRecover, Gateway: g})
			}
		}
		if p.DrainGateways > 0 {
			if nextFresh+p.DrainGateways > len(gws) {
				return cfg, fmt.Errorf("scenario %q: phase %q drains more gateways than exist", spec.Name, p.Name)
			}
			if len(drained)+p.DrainGateways >= len(gws) {
				return cfg, fmt.Errorf("scenario %q: phase %q would drain the whole gateway fleet", spec.Name, p.Name)
			}
			for i := 0; i < p.DrainGateways; i++ {
				g := gws[nextFresh]
				nextFresh++
				drained = append(drained, g)
				cfg.Schedule = append(cfg.Schedule, faults.Event{At: start, Kind: faults.GatewayOutage, Gateway: g})
			}
		}

		if p.UpgradeWaves > 0 {
			waves := p.UpgradeWaves
			if waves > len(fabric) {
				waves = len(fabric)
			}
			span := p.Duration / simtime.Duration(waves)
			down := p.UpgradeDowntime
			if down <= 0 {
				down = span / 4
			}
			if max := span * 8 / 10; down > max {
				down = max
			}
			for i := 0; i < waves; i++ {
				waveStart := start + simtime.Time(span)*simtime.Time(i) + simtime.Time(span/10)
				for j := i; j < len(fabric); j += waves {
					cfg.Schedule = append(cfg.Schedule,
						faults.Event{At: waveStart, Kind: faults.SwitchFail, Switch: fabric[j]},
						faults.Event{At: waveStart + simtime.Time(down), Kind: faults.SwitchRecover, Switch: fabric[j]})
				}
			}
		}
	}
	return cfg, nil
}

// planPopulation plans tenant churn, per-phase traffic shaped by the
// diurnal ramp, and migration storms against the built world.
func planPopulation(spec Spec, w *harness.World, pl *plan) error {
	rng := rand.New(rand.NewSource(w.Cfg.Seed ^ 0x5cee7a11))
	servers := w.Topo.Servers()

	lives := make([]vmLife, 0, len(w.VIPs))
	for _, vip := range w.VIPs {
		h, _ := w.Net.HostOf(vip)
		lives = append(lives, vmLife{vip: vip, diesAt: simtime.Never, host: h})
	}

	// ladder spreads n events deterministically over [lo,hi] fractions
	// of phase k, strictly inside the phase.
	ladder := func(k, i, n int, lo, hi float64) simtime.Time {
		win := pl.windows[k]
		f := lo
		if n > 1 {
			f = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		return win.start + simtime.Time(f*float64(win.duration()))
	}

	// Pass 1: churn lifetimes. Arrivals reserve fresh VIPs; departures
	// pick uniformly among VMs alive since before the phase.
	for k := range spec.Phases {
		p := &spec.Phases[k]
		for i := 0; i < p.Arrivals; i++ {
			vip := w.Net.ReserveVIP()
			host := servers[rng.Intn(len(servers))]
			at := ladder(k, i, p.Arrivals, 0.10, 0.60)
			lives = append(lives, vmLife{vip: vip, bornAt: at, diesAt: simtime.Never, host: host})
			pl.ops = append(pl.ops, plannedOp{at: at, kind: opArrive, vip: vip, host: host, phase: k})
		}
		if p.Departures > 0 {
			var cand []int
			for li := range lives {
				if lives[li].diesAt == simtime.Never && lives[li].bornAt < pl.windows[k].start {
					cand = append(cand, li)
				}
			}
			if len(cand) <= p.Departures {
				return fmt.Errorf("scenario %q: phase %q wants %d departures, only %d candidates",
					spec.Name, p.Name, p.Departures, len(cand))
			}
			for i := 0; i < p.Departures; i++ {
				j := rng.Intn(len(cand))
				li := cand[j]
				cand[j] = cand[len(cand)-1]
				cand = cand[:len(cand)-1]
				at := ladder(k, i, p.Departures, 0.30, 0.80)
				lives[li].diesAt = at
				pl.ops = append(pl.ops, plannedOp{at: at, kind: opDepart, vip: lives[li].vip, phase: k})
			}
		}
	}

	// Pass 2: traffic and migration storms. Traffic in phase k flows
	// only between VMs alive for the whole phase, so departures starve
	// their VMs of new flows from the departure phase on (in-flight
	// flows from earlier phases may straggle — the gateway counts those
	// lookups in GatewayUnknownVIP and drops them, as in production).
	var totalMean float64
	for k := range spec.Phases {
		totalMean += spec.Phases[k].meanLoad()
	}
	if totalMean <= 0 {
		return fmt.Errorf("scenario %q: every phase is quiet", spec.Name)
	}
	gen := trace.Generators[w.Cfg.TraceName]
	if gen == nil {
		return fmt.Errorf("scenario %q: unknown trace %q", spec.Name, w.Cfg.TraceName)
	}

	var nextID uint64 = 1
	for k := range spec.Phases {
		p := &spec.Phases[k]
		win := pl.windows[k]

		mean := p.meanLoad()
		if mean > 0 {
			budget := int(math.Round(float64(spec.FlowBudget) * mean / totalMean))
			if budget > 1 {
				var alive []netaddr.VIP
				for li := range lives {
					if lives[li].bornAt <= win.start && lives[li].diesAt >= win.end {
						alive = append(alive, lives[li].vip)
					}
				}
				if len(alive) < 2 {
					return fmt.Errorf("scenario %q: phase %q has %d live VMs, need 2", spec.Name, p.Name, len(alive))
				}
				effLoad := w.Cfg.Load * mean
				if effLoad > 1 {
					effLoad = 1
				}
				wl, err := gen(trace.Config{
					VIPs:        alive,
					Servers:     len(servers),
					HostLinkBps: w.Cfg.Topo.HostLinkBps,
					Load:        effLoad,
					Duration:    p.Duration,
					MaxFlows:    budget,
					Seed:        w.Cfg.Seed + int64(k+1)*1000003,
				})
				if err != nil {
					return fmt.Errorf("scenario %q: phase %q traffic: %w", spec.Name, p.Name, err)
				}
				for i := range wl.Flows {
					f := &wl.Flows[i]
					x := float64(f.Start) / float64(p.Duration)
					if x >= 1 {
						x = 1
					}
					f.Start = win.start + simtime.Time(rampWarp(x, p.LoadStart, p.LoadEnd)*float64(win.duration()))
					f.ID = nextID
					nextID++
				}
				w.Agent.AddFlows(wl.Flows)
				pl.flows[k] = len(wl.Flows)
			}
		}

		if p.Migrations > 0 {
			var cand []int
			for li := range lives {
				l := &lives[li]
				if l.diesAt == simtime.Never && !l.migrated && l.bornAt <= win.start {
					cand = append(cand, li)
				}
			}
			if len(cand) < p.Migrations {
				return fmt.Errorf("scenario %q: phase %q wants %d migrations, only %d candidates",
					spec.Name, p.Name, p.Migrations, len(cand))
			}
			for i := 0; i < p.Migrations; i++ {
				j := rng.Intn(len(cand))
				li := cand[j]
				cand[j] = cand[len(cand)-1]
				cand = cand[:len(cand)-1]
				cur := lives[li].host
				tgt := cur
				for tgt == cur {
					tgt = servers[rng.Intn(len(servers))]
				}
				at := ladder(k, i, p.Migrations, 0.30, 0.70)
				lives[li].migrated = true
				lives[li].host = tgt
				pl.ops = append(pl.ops, plannedOp{at: at, kind: opMigrate, vip: lives[li].vip, host: tgt, phase: k})
			}
		}
	}
	return nil
}

// rampWarp maps a uniform start fraction x in [0,1] through the inverse
// CDF of a linear load density a→b, so flow arrival density inside the
// phase follows the diurnal ramp. Monotone: generator start ordering is
// preserved.
func rampWarp(x, a, b float64) float64 {
	if a == b || a+b <= 0 {
		return x
	}
	// Density f(t) ∝ a + (b-a)t; CDF F(t) = (a·t + (b-a)t²/2)/((a+b)/2).
	// Solve F(t) = x for t.
	disc := a*a + (b-a)*(a+b)*x
	if disc < 0 {
		disc = 0
	}
	return (math.Sqrt(disc) - a) / (b - a)
}
