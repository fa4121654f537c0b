package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"switchv2p/internal/simtime"
)

// fixed formats a float with a fixed precision so exported CSV/JSON
// files diff cleanly across runs and platforms.
func fixed(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

type jsonProfile struct {
	Events           int64   `json:"events"`
	HeapHighWater    int     `json:"heap_high_water"`
	Mallocs          uint64  `json:"mallocs"`
	AllocsPerEvent   float64 `json:"allocs_per_event"`
	WallMs           float64 `json:"wall_ms"`
	EventsPerSec     float64 `json:"events_per_sec"`
	WallPerSimSecond float64 `json:"wall_per_sim_second"`
}

type jsonExport struct {
	IntervalUs float64        `json:"interval_us"`
	TimesUs    []float64      `json:"times_us"`
	Series     []*Series      `json:"series"`
	Counters   []CounterValue `json:"counters"`
	Gauges     []GaugeValue   `json:"gauges"`
	Faults     []FaultRecord  `json:"faults,omitempty"`
	// SamplesDropped surfaces streaming-window evictions; omitted (so
	// buffered exports carry no such key) when zero.
	SamplesDropped int64       `json:"samples_dropped,omitempty"`
	Profile        jsonProfile `json:"profile"`
}

// WriteJSON exports the full collector state — timeline, counters,
// gauges and engine profile — as one JSON document. In streaming
// operation the timeline section covers only the retained window
// (SamplesDropped reports how many older samples were evicted after
// being streamed).
func (c *Collector) WriteJSON(w io.Writer) error {
	doc := jsonExport{
		IntervalUs:     c.Interval.Micros(),
		TimesUs:        make([]float64, 0, len(c.Timeline.Times)),
		Series:         c.Timeline.Series,
		Counters:       c.Counters(),
		Gauges:         c.Gauges(),
		Faults:         c.Faults,
		SamplesDropped: c.Timeline.Dropped,
		Profile: jsonProfile{
			Events:           c.Profile.Events,
			HeapHighWater:    c.Profile.HeapHighWater,
			Mallocs:          c.Profile.Mallocs,
			AllocsPerEvent:   c.Profile.AllocsPerEvent(),
			WallMs:           float64(c.Profile.Wall) / float64(time.Millisecond),
			EventsPerSec:     c.Profile.EventsPerSec(),
			WallPerSimSecond: c.Profile.WallPerSimSecond(),
		},
	}
	for _, t := range c.Timeline.Times {
		doc.TimesUs = append(doc.TimesUs, float64(t)/1000)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteCSV exports the timeline in wide format: time_us, then one
// column per series; one row per sampling tick, all floats at fixed
// precision.
func (c *Collector) WriteCSV(w io.Writer) error {
	t := c.Timeline
	e, err := newCSVEmitter(w, t.Series)
	if err != nil {
		return err
	}
	for i, tm := range t.Times {
		err := e.writeRow(tm, func(j int) float64 {
			if vs := t.Series[j].Values; i < len(vs) {
				return vs[i]
			}
			return 0
		})
		if err != nil {
			return err
		}
	}
	return e.flush()
}

// csvEmitter is the one place the wide timeline CSV is formatted: the
// buffered exporter above and the streaming collector (stream.go) both
// write through it, so their bytes cannot diverge.
type csvEmitter struct {
	cw  *csv.Writer
	row []string
}

// newCSVEmitter writes the header row: time_us, then one column per
// series.
func newCSVEmitter(w io.Writer, series []*Series) (*csvEmitter, error) {
	row := make([]string, 1, len(series)+1)
	row[0] = "time_us"
	for _, s := range series {
		row = append(row, s.Name)
	}
	e := &csvEmitter{cw: csv.NewWriter(w), row: row}
	return e, e.cw.Write(row)
}

// writeRow writes one sample row: the instant in microseconds, then
// value(j) for series column j, all at fixed precision.
func (e *csvEmitter) writeRow(tm simtime.Time, value func(j int) float64) error {
	e.row[0] = fixed(float64(tm) / 1000)
	for j := range e.row[1:] {
		e.row[j+1] = fixed(value(j))
	}
	return e.cw.Write(e.row)
}

func (e *csvEmitter) flush() error {
	e.cw.Flush()
	return e.cw.Error()
}

// WriteFaultsCSV exports the fault timeline as CSV (time_us at fixed
// precision, kind, detail) — one row per applied fault event.
func (c *Collector) WriteFaultsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_us", "kind", "detail"}); err != nil {
		return err
	}
	for _, f := range c.Faults {
		if err := cw.Write([]string{fixed(f.TimeUs), f.Kind, f.Detail}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Summary renders a human-readable digest: the engine profile, the
// counters and gauges, the final reading of every sampled series, and
// the fault timeline.
func (c *Collector) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine    %s\n", c.Profile.String())
	fmt.Fprintf(&b, "samples   %d ticks every %v (%d series)\n",
		c.Ticks(), c.Interval, len(c.Timeline.Series))
	if c.Timeline.Dropped > 0 {
		fmt.Fprintf(&b, "          streaming: %d retained in window, %d evicted after emission\n",
			len(c.Timeline.Times), c.Timeline.Dropped)
	}
	for _, cv := range c.Counters() {
		fmt.Fprintf(&b, "counter   %-32s %d\n", cv.Name, cv.Value)
	}
	for _, gv := range c.Gauges() {
		fmt.Fprintf(&b, "gauge     %-32s %d (high water %d)\n", gv.Name, gv.Value, gv.HighWater)
	}
	if c.ticks > 0 {
		// The running aggregates cover samples already evicted from a
		// streaming window.
		for _, s := range c.Timeline.Series {
			fmt.Fprintf(&b, "series    %-32s last=%.4g max=%.4g\n", s.Name, s.last, s.max)
		}
	}
	for _, f := range c.Faults {
		fmt.Fprintf(&b, "fault     t=%-10s %-16s %s\n", fixed(f.TimeUs)+"us", f.Kind, f.Detail)
	}
	return b.String()
}
