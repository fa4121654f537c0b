package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
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
	Profile    jsonProfile    `json:"profile"`
}

// WriteJSON exports the full collector state — timeline, counters,
// gauges and engine profile — as one JSON document.
func (c *Collector) WriteJSON(w io.Writer) error {
	doc := jsonExport{
		IntervalUs: c.Interval.Micros(),
		TimesUs:    make([]float64, 0, len(c.Timeline.Times)),
		Series:     c.Timeline.Series,
		Counters:   c.Counters(),
		Gauges:     c.Gauges(),
		Faults:     c.Faults,
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
	cw := csv.NewWriter(w)
	row := make([]string, 1, len(t.Series)+1)
	row[0] = "time_us"
	for _, s := range t.Series {
		row = append(row, s.Name)
	}
	if err := cw.Write(row); err != nil {
		return err
	}
	for i, tm := range t.Times {
		row[0] = fixed(float64(tm) / 1000)
		for j, s := range t.Series {
			row[j+1] = fixed(s.Values[i])
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
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
		len(c.Timeline.Times), c.Interval, len(c.Timeline.Series))
	for _, cv := range c.Counters() {
		fmt.Fprintf(&b, "counter   %-32s %d\n", cv.Name, cv.Value)
	}
	for _, gv := range c.Gauges() {
		fmt.Fprintf(&b, "gauge     %-32s %d (high water %d)\n", gv.Name, gv.Value, gv.HighWater)
	}
	for _, s := range c.Timeline.Series {
		if len(s.Values) == 0 {
			continue
		}
		last, peak := s.Values[len(s.Values)-1], s.Values[0]
		for _, v := range s.Values[1:] {
			if v > peak {
				peak = v
			}
		}
		fmt.Fprintf(&b, "series    %-32s last=%.4g max=%.4g\n", s.Name, last, peak)
	}
	for _, f := range c.Faults {
		fmt.Fprintf(&b, "fault     t=%-10s %-16s %s\n", fixed(f.TimeUs)+"us", f.Kind, f.Detail)
	}
	return b.String()
}
