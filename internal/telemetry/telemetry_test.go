package telemetry

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"switchv2p/internal/eventq"
	"switchv2p/internal/simtime"
)

// The export is name-sorted and identical across calls whatever the
// registration order, and each entry carries its own reader's values.
func TestSnapshotsStableAcrossRuns(t *testing.T) {
	c := New(Options{})
	names := []string{"q", "b", "z", "a", "m", "x", "c", "y", "k", "d"}
	for i, name := range names {
		v := int64(i)
		c.AddCounter(name, func() int64 { return v })
		c.AddGauge(name, func() (int64, int64) { return v, 2 * v })
	}
	cs, gs := c.Counters(), c.Gauges()
	if len(cs) != len(names) || len(gs) != len(names) {
		t.Fatalf("got %d counters, %d gauges, want %d", len(cs), len(gs), len(names))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i-1].Name >= cs[i].Name {
			t.Fatalf("counters not sorted at %d: %q >= %q", i, cs[i-1].Name, cs[i].Name)
		}
		if gs[i-1].Name >= gs[i].Name {
			t.Fatalf("gauges not sorted at %d: %q >= %q", i, gs[i-1].Name, gs[i].Name)
		}
	}
	if cs[0] != (CounterValue{Name: "a", Value: 3}) || gs[0] != (GaugeValue{Name: "a", Value: 3, HighWater: 6}) {
		t.Fatalf("first readings = %+v, %+v; want a's reader values", cs[0], gs[0])
	}
	for i := 0; i < 10; i++ {
		if cs2 := c.Counters(); !reflect.DeepEqual(cs2, cs) {
			t.Fatalf("Counters changed between calls:\n%v\n%v", cs, cs2)
		}
		if gs2 := c.Gauges(); !reflect.DeepEqual(gs2, gs) {
			t.Fatalf("Gauges changed between calls:\n%v\n%v", gs, gs2)
		}
	}
}

func TestRateAndRatioProbes(t *testing.T) {
	var cum int64
	rate := RateProbe(simtime.Microsecond, func() int64 { return cum })
	cum = 5
	if got := rate(); got != 5e6 {
		t.Fatalf("rate tick 1 = %g, want 5e6", got)
	}
	cum = 5 // no movement
	if got := rate(); got != 0 {
		t.Fatalf("rate tick 2 = %g, want 0", got)
	}

	var hits, lookups int64
	ratio := RatioProbe(func() int64 { return hits }, func() int64 { return lookups })
	hits, lookups = 3, 4
	if got := ratio(); got != 0.75 {
		t.Fatalf("ratio tick 1 = %g, want 0.75", got)
	}
	// Next window: no lookups at all must read 0, not NaN.
	if got := ratio(); got != 0 {
		t.Fatalf("ratio tick 2 = %g, want 0", got)
	}
}

// TestSamplerFollowsQueue drives the sampler on a real event queue and
// checks the two scheduling properties the collector documents: ticks
// land every Interval while simulation events remain, and the sampler
// never re-arms after the last real event drains.
func TestSamplerFollowsQueue(t *testing.T) {
	q := new(eventq.Queue)
	c := New(Options{Interval: 2 * simtime.Microsecond})
	var fired int64
	c.AddProbe("fired", func() float64 { return float64(fired) })

	last := simtime.Time(9 * simtime.Microsecond)
	q.At(simtime.Time(simtime.Microsecond), func() { fired++ })
	q.At(last, func() { fired++ })
	c.Attach(q)

	for q.Step() {
	}
	if q.Now() >= last+simtime.Time(2*c.Interval) {
		t.Fatalf("sampler kept the queue alive until %v", q.Now())
	}
	times := c.Timeline.Times
	if len(times) == 0 {
		t.Fatal("no samples recorded")
	}
	for i, tm := range times {
		want := simtime.Time((i + 1) * 2 * int(simtime.Microsecond))
		if tm != want {
			t.Fatalf("tick %d at %v, want %v", i, tm, want)
		}
	}
	s := c.Timeline.Find("fired")
	if s == nil || len(s.Values) != len(times) {
		t.Fatalf("series fired: %+v", s)
	}
	if s.Values[0] != 1 || s.Values[len(s.Values)-1] != 2 {
		t.Fatalf("fired values = %v", s.Values)
	}
	if c.Timeline.Find("missing") != nil {
		t.Fatal("Find invented a series")
	}
}

func TestProfileOnlySchedulesNothing(t *testing.T) {
	q := new(eventq.Queue)
	c := New(Options{ProfileOnly: true})
	if !c.profileOnly {
		t.Fatal("ProfileOnly not reported")
	}
	c.Attach(q)
	if q.Len() != 0 {
		t.Fatal("profile-only collector scheduled a sampler event")
	}
}

func TestWriteJSONAndCSV(t *testing.T) {
	q := new(eventq.Queue)
	c := New(Options{Interval: simtime.Microsecond})
	// One reading per tick, rising then falling: the summary's last and
	// max are different samples.
	loads := []float64{1.5, 4, 2}
	var tick int
	c.AddProbe("load", func() float64 { v := loads[tick]; tick++; return v })
	c.AddCounter("pkts", func() int64 { return 12 })
	c.AddGauge("depth", func() (int64, int64) { return 3, 9 })
	c.Profile.Events = 100
	q.At(simtime.Time(3*simtime.Microsecond), func() {})
	c.Attach(q)
	for q.Step() {
	}
	if len(c.Timeline.Times) != len(loads) {
		t.Fatalf("%d ticks, want %d", len(c.Timeline.Times), len(loads))
	}

	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, key := range []string{"interval_us", "times_us", "series", "counters", "gauges", "profile"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("JSON missing %q", key)
		}
	}

	buf.Reset()
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != "time_us" || rows[0][1] != "load" {
		t.Fatalf("csv header = %v", rows[0])
	}
	if len(rows) != 1+len(c.Timeline.Times) {
		t.Fatalf("csv rows = %d, want %d", len(rows), 1+len(c.Timeline.Times))
	}
	if rows[1][1] != "1.500000" {
		t.Fatalf("csv value = %q, want fixed precision 1.500000", rows[1][1])
	}

	sum := c.Summary()
	last, peak := loads[len(loads)-1], 4.0
	if last == peak {
		t.Fatal("probe readings do not tell last from max")
	}
	series := fmt.Sprintf("last=%.4g max=%.4g", last, peak)
	for _, frag := range []string{"pkts", "depth", "load", "events=100", "samples   3 ticks", series} {
		if !strings.Contains(sum, frag) {
			t.Fatalf("summary missing %q:\n%s", frag, sum)
		}
	}
}
