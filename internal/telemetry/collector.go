package telemetry

import (
	"io"

	"switchv2p/internal/eventq"
	"switchv2p/internal/simtime"
)

// DefaultInterval is the sampling period used when Options.Interval is
// zero: fine enough to resolve the warm-up dynamics of a millisecond-
// scale run, coarse enough to stay far off the packet event rate.
const DefaultInterval = 10 * simtime.Microsecond

// DefaultWindow is the number of recent samples a streaming collector
// keeps in memory when StreamOptions.Window is zero.
const DefaultWindow = 256

// StreamOptions converts the sampler to windowed/streaming operation:
// every tick is emitted incrementally to the configured writer and the
// in-memory Timeline retains only the most recent Window samples, so a
// run of any simulated length samples in constant memory. CSV receives
// the same bytes Collector.WriteCSV would produce for an unbounded run.
type StreamOptions struct {
	// CSV, when non-nil, receives the timeline incrementally in the wide
	// CSV format (header at Attach, one row per tick).
	CSV io.Writer
	// Window bounds in-memory sample retention (0 = DefaultWindow).
	Window int
}

// Options configures a Collector.
type Options struct {
	// Interval is the time-series sampling period (0 = DefaultInterval).
	Interval simtime.Duration
	// ProfileOnly keeps the engine profiling hooks but disables the
	// time-series sampler — no sampler events enter the simulation.
	// Benchmarks use this to measure raw engine throughput.
	ProfileOnly bool
	// Stream, when non-nil, switches the sampler to streaming operation
	// (see StreamOptions). Ignored when ProfileOnly is set: with no
	// sampler there is nothing to stream.
	Stream *StreamOptions
}

// Series is one named time-series; Values is indexed like the owning
// Timeline's Times. In streaming operation Values holds only the
// retained window; the unexported running aggregates cover every sample
// ever recorded.
type Series struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`

	// Running aggregates over every sample the collector took.
	last, max float64
}

// Timeline holds every sampled series over a shared time axis.
type Timeline struct {
	Times  []simtime.Time
	Series []*Series

	// Dropped counts samples evicted from the in-memory window by a
	// streaming collector (always 0 in buffered operation). Evicted
	// samples were already emitted to the stream writer; only the
	// in-memory copy is released.
	Dropped int64
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
	Profile  EngineProfile
	Timeline *Timeline
	// Faults is the ordered timeline of fault events applied during the
	// run (empty when no fault injection is configured).
	Faults []FaultRecord

	profileOnly bool
	probes      []probe
	counters    []counterReader
	gauges      []gaugeReader
	q           *eventq.Queue
	ticks       int64 // samples taken, evicted ones included

	// Streaming state (nil/zero in buffered operation).
	stream    *StreamOptions
	window    int
	csvw      *csvEmitter
	streamErr error
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
	c := &Collector{
		Interval:    iv,
		Timeline:    &Timeline{},
		profileOnly: opts.ProfileOnly,
	}
	if opts.Stream != nil && !opts.ProfileOnly {
		c.stream = opts.Stream
		c.window = opts.Stream.Window
		if c.window <= 0 {
			c.window = DefaultWindow
		}
	}
	return c
}

// Ticks returns the total number of sampling ticks taken, including
// samples already evicted from a streaming window.
func (c *Collector) Ticks() int64 { return c.ticks }

// RecordFault appends one event to the fault timeline. The injector
// calls it at the simulation time the fault is applied, so records are
// naturally in non-decreasing time order.
func (c *Collector) RecordFault(timeUs float64, kind, detail string) {
	c.Faults = append(c.Faults, FaultRecord{TimeUs: timeUs, Kind: kind, Detail: detail})
}

// AddProbe registers a sampled series: fn is evaluated once per
// sampling tick and must not mutate simulation state. Probes must be
// registered before Attach.
func (c *Collector) AddProbe(name string, fn func() float64) {
	s := &Series{Name: name}
	c.Timeline.Series = append(c.Timeline.Series, s)
	c.probes = append(c.probes, probe{series: s, fn: fn})
}

// Attach schedules the sampler on the simulation's event queue. The
// sampler re-arms itself only while other events remain pending, so it
// never keeps a drained simulation alive, and its ticks are pure
// observations — an attached collector does not change any result.
// In streaming operation this also emits the CSV header, so all probes
// must be registered first.
func (c *Collector) Attach(q *eventq.Queue) {
	if c.profileOnly {
		return
	}
	c.q = q
	c.initStream()
	q.After(c.Interval, c.tick)
}

// BarrierSampling prepares the collector for externally driven sampling
// — the sharded engine calls TickAt at every multiple of the returned
// interval instead of the collector self-scheduling queue events (the
// sharded root queue is frozen). It returns the sampling interval and
// whether sampling is enabled at all (false for a profile-only
// collector). In streaming operation it also emits the CSV header, so
// all probes must be registered first.
func (c *Collector) BarrierSampling() (simtime.Duration, bool) {
	if c.profileOnly {
		return 0, false
	}
	c.initStream()
	return c.Interval, true
}

// TickAt takes one sample at the given simulated instant. It is the
// externally driven counterpart of the self-scheduled tick; the caller
// owns the cadence (see BarrierSampling).
func (c *Collector) TickAt(now simtime.Time) {
	c.ticks++
	t := c.Timeline
	t.Times = append(t.Times, now)
	for _, p := range c.probes {
		v := p.fn()
		s := p.series
		s.Values = append(s.Values, v)
		s.last = v
		if c.ticks == 1 || v > s.max {
			s.max = v
		}
	}
	if c.stream != nil {
		c.emit(now)
		if len(t.Times) > c.window {
			// Evict the oldest sample: shift in place so the backing
			// arrays stop growing once the window fills.
			n := copy(t.Times, t.Times[1:])
			t.Times = t.Times[:n]
			for _, p := range c.probes {
				vs := p.series.Values
				m := copy(vs, vs[1:])
				p.series.Values = vs[:m]
			}
			t.Dropped++
		}
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
