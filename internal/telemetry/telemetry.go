// Package telemetry is the simulation observability subsystem: a
// metrics registry with allocation-free counters and gauges cheap
// enough for the simulator hot path, a time-series sampler driven by
// simulation events, engine profiling hooks (events/sec, heap depth),
// and JSON/CSV exporters. The CSV timeline — and only it — can also be
// streamed tick by tick through a bounded window (StreamOptions).
//
// Telemetry is strictly opt-in. Instrumented code holds *Counter and
// *Gauge handles whose methods are no-ops on a nil receiver, so hot
// paths increment unconditionally: with telemetry disabled the handle
// is nil and the only cost is an inlined nil check; with it enabled the
// cost is one int64 field update. Nothing in this package mutates
// simulation state — an enabled collector observes a run without
// perturbing it.
package telemetry

import (
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// ready for use; a nil *Counter is a valid no-op handle. Updates are
// atomic: counters like the transport retransmit/RTO tallies are bumped
// from several shard workers on the sharded engine, and an atomic add
// keeps them exact there at negligible cost on the serial engine
// (uncontended atomic add is a handful of cycles).
type Counter struct{ v int64 }

// Inc adds one.
//
//v2plint:hotpath
func (c *Counter) Inc() {
	if c != nil {
		atomic.AddInt64(&c.v, 1)
	}
}

// Add adds n.
//
//v2plint:hotpath
func (c *Counter) Add(n int64) {
	if c != nil {
		atomic.AddInt64(&c.v, n)
	}
}

// Value returns the current count (0 for a nil handle).
//
//v2plint:hotpath
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Gauge is a last-value metric that also tracks its high-water mark.
// The zero value is ready for use; a nil *Gauge is a valid no-op handle.
type Gauge struct{ v, hw int64 }

// Set records v as the current value, updating the high-water mark.
//
//v2plint:hotpath
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.hw {
		g.hw = v
	}
}

// Value returns the last value set (0 for a nil handle).
//
//v2plint:hotpath
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// HighWater returns the largest value ever set (0 for a nil handle).
//
//v2plint:hotpath
func (g *Gauge) HighWater() int64 {
	if g == nil {
		return 0
	}
	return g.hw
}

// Absorb folds another gauge's high-water mark into g (the max of the
// two). The sharded engine gives each shard view a private shadow gauge
// for the buffer-occupancy hot path and absorbs the shadows into the
// registry gauge at barriers, single-threaded — Absorb is not safe for
// concurrent use. The instantaneous value is not merged here: shards
// have no shared "last touched" notion, so the merger publishes its own
// choice via Set.
func (g *Gauge) Absorb(o *Gauge) {
	if g == nil || o == nil {
		return
	}
	if o.hw > g.hw {
		g.hw = o.hw
	}
}

// Registry hands out named counters and gauges. Lookups by name happen
// only at attach time; the handles themselves are plain pointers, so
// the per-event cost never involves a map. A nil *Registry hands out
// nil (no-op) handles, which is how disabled telemetry is modeled.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. A nil registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. A nil registry returns a nil (no-op) handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// CounterValue is one exported counter reading.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one exported gauge reading.
type GaugeValue struct {
	Name      string `json:"name"`
	Value     int64  `json:"value"`
	HighWater int64  `json:"high_water"`
}

// Counters returns all counter readings sorted by name (deterministic
// export order).
func (r *Registry) Counters() []CounterValue {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]CounterValue, 0, len(names))
	for _, name := range names {
		out = append(out, CounterValue{Name: name, Value: r.counters[name].Value()})
	}
	return out
}

// Gauges returns all gauge readings sorted by name.
func (r *Registry) Gauges() []GaugeValue {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]GaugeValue, 0, len(names))
	for _, name := range names {
		g := r.gauges[name]
		out = append(out, GaugeValue{Name: name, Value: g.Value(), HighWater: g.HighWater()})
	}
	return out
}
