// Package telemetry is the simulation observability subsystem: a
// time-series sampler driven by simulation events, final-value counter
// and gauge readers, engine profiling figures (events/sec, queue depth),
// and JSON/CSV exporters. The CSV timeline — and only it — can also be
// streamed tick by tick through a bounded window (StreamOptions).
//
// Telemetry reads the simulator; the simulator never calls into it.
// Probes, counters and gauges are functions over state the simulator
// keeps for itself, evaluated at sampling ticks or at export, so the
// forwarding path carries no telemetry handle and no check for one.
// Nothing in this package mutates simulation state — an enabled
// collector observes a run without perturbing it.
package telemetry

import "sort"

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

type counterReader struct {
	name string
	read func() int64
}

type gaugeReader struct {
	name string
	read func() (value, highWater int64)
}

// AddCounter registers a counter whose value read returns. read is
// evaluated only at export (Counters), never during the run, and must
// not mutate simulation state.
func (c *Collector) AddCounter(name string, read func() int64) {
	c.counters = append(c.counters, counterReader{name, read})
}

// AddGauge registers a gauge: read returns its current value and its
// high-water mark. Like a counter it is read only at export.
func (c *Collector) AddGauge(name string, read func() (value, highWater int64)) {
	c.gauges = append(c.gauges, gaugeReader{name, read})
}

// Counters reads every registered counter, sorted by name (deterministic
// export order).
func (c *Collector) Counters() []CounterValue {
	out := make([]CounterValue, 0, len(c.counters))
	for _, r := range c.counters {
		out = append(out, CounterValue{Name: r.name, Value: r.read()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Gauges reads every registered gauge, sorted by name.
func (c *Collector) Gauges() []GaugeValue {
	out := make([]GaugeValue, 0, len(c.gauges))
	for _, r := range c.gauges {
		v, hw := r.read()
		out = append(out, GaugeValue{Name: r.name, Value: v, HighWater: hw})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
