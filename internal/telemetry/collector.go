package telemetry

import (
	"switchv2p/internal/eventq"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
)

// DefaultInterval is the sampling period used when Options.Interval is
// zero: fine enough to resolve the warm-up dynamics of a millisecond-
// scale run, coarse enough to stay far off the packet event rate.
const DefaultInterval = 10 * simtime.Microsecond

// Options configures a Collector.
type Options struct {
	// Interval is the time-series sampling period (0 = DefaultInterval).
	Interval simtime.Duration
	// ProfileOnly keeps the engine profiling hooks but disables the
	// time-series sampler — no sampler events enter the simulation.
	// Benchmarks use this to measure raw engine throughput.
	ProfileOnly bool
}

// Series is one named time-series; Values is indexed like the owning
// Timeline's Times.
type Series struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Timeline holds every sampled series over a shared time axis.
type Timeline struct {
	Times  []simtime.Time
	Series []*Series
}

// Find returns the named series, or nil.
func (t *Timeline) Find(name string) *Series {
	for _, s := range t.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// FaultRecord is one entry in the fault timeline: a fault event the
// injector (internal/faults) applied to the simulation, stamped with
// its simulation time. Kind is the event kind's string form (e.g.
// "SwitchFail") and Detail identifies the affected entity (e.g.
// "switch 12" or "link host 3 <-> switch 0").
type FaultRecord struct {
	TimeUs float64 `json:"time_us"`
	Kind   string  `json:"kind"`
	Detail string  `json:"detail"`
}

// Collector bundles one run's telemetry: the counter and gauge readers,
// the engine profile, the sampled timeline, and the fault timeline.
type Collector struct {
	Interval simtime.Duration
	Profile  simnet.EngineProfile
	Timeline *Timeline
	// Faults is the ordered timeline of fault events applied during the
	// run, filled from the injector's timeline when the harness builds
	// the report (empty when no fault injection is configured).
	Faults []FaultRecord

	profileOnly bool
	probes      []probe
	counters    []counterReader
	gauges      []gaugeReader
	q           *eventq.Queue
}

type probe struct {
	series *Series
	fn     func() float64
}

// New builds a collector.
func New(opts Options) *Collector {
	iv := opts.Interval
	if iv <= 0 {
		iv = DefaultInterval
	}
	return &Collector{
		Interval:    iv,
		Timeline:    &Timeline{},
		profileOnly: opts.ProfileOnly,
	}
}

// AddProbe registers a sampled series: fn is evaluated once per
// sampling tick and must not mutate simulation state. Probes must be
// registered before Attach (or the first TickAt), so every series holds
// one value per tick.
func (c *Collector) AddProbe(name string, fn func() float64) {
	s := &Series{Name: name}
	c.Timeline.Series = append(c.Timeline.Series, s)
	c.probes = append(c.probes, probe{series: s, fn: fn})
}

// Attach schedules the sampler on the simulation's event queue. The
// sampler re-arms itself only while other events remain pending, so it
// never keeps a drained simulation alive, and its ticks are pure
// observations — an attached collector does not change any result.
func (c *Collector) Attach(q *eventq.Queue) {
	if c.profileOnly {
		return
	}
	c.q = q
	q.After(c.Interval, c.tick)
}

// BarrierSampling prepares the collector for externally driven sampling
// — the sharded engine calls TickAt at every multiple of the returned
// interval instead of the collector self-scheduling queue events (the
// sharded root queue is frozen). It returns the sampling interval and
// whether sampling is enabled at all (false for a profile-only
// collector).
func (c *Collector) BarrierSampling() (simtime.Duration, bool) {
	if c.profileOnly {
		return 0, false
	}
	return c.Interval, true
}

// TickAt takes one sample at the given simulated instant. It is the
// externally driven counterpart of the self-scheduled tick; the caller
// owns the cadence (see BarrierSampling).
func (c *Collector) TickAt(now simtime.Time) {
	c.Timeline.Times = append(c.Timeline.Times, now)
	for _, p := range c.probes {
		p.series.Values = append(p.series.Values, p.fn())
	}
}

func (c *Collector) tick() {
	c.TickAt(c.q.Now())
	// Re-arm only while the simulation has work left: when this tick is
	// dispatched the queue holds exactly the other pending events.
	if c.q.Len() > 0 {
		c.q.After(c.Interval, c.tick)
	}
}

// RateProbe adapts a cumulative counter read into a per-second rate
// over the sampling window: each tick reports (current-previous)
// divided by the interval. The closure is stateful; register the
// returned probe exactly once.
func RateProbe(interval simtime.Duration, cum func() int64) func() float64 {
	var last int64
	secs := interval.Seconds()
	return func() float64 {
		v := cum()
		d := v - last
		last = v
		return float64(d) / secs
	}
}

// RatioProbe adapts two cumulative counters into a windowed ratio:
// each tick reports Δnum/Δden over the sampling window (0 when the
// denominator did not move). Used for windowed cache hit rates.
func RatioProbe(num, den func() int64) func() float64 {
	var lastNum, lastDen int64
	return func() float64 {
		n, d := num(), den()
		dn, dd := n-lastNum, d-lastDen
		lastNum, lastDen = n, d
		if dd == 0 {
			return 0
		}
		return float64(dn) / float64(dd)
	}
}
