package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that what the program emits is what BENCHMARK.json lists: every
// end-to-end and per-layer metric exactly once, with its unit and a
// finite value, under the five workload names.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		if _, dup := want[m.Name]; dup {
			t.Errorf("BENCHMARK.json lists %s twice", m.Name)
		}
		want[m.Name] = m.Unit
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the program %s", i, bf.Workloads[i].Name, w.name)
		}
		var out bytes.Buffer
		res, err := measure(w, options{seed: 1, reps: 1, e2e: true, traced: true, tiny: true, out: &out})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d flows failed", w.name, res.Failed, res.Attempted)
		}

		// The result line carries exactly the listed metrics.
		var line struct {
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(resultLine(res)), &line); err != nil {
			t.Fatalf("%s: result line: %v", w.name, err)
		}
		for name, unit := range want {
			m, ok := line.Metrics[name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s not emitted", w.name, name)
			case m.Unit != unit:
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s is %v", w.name, name, m.Value)
			}
		}
		for name := range line.Metrics {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: metric %s emitted but not in BENCHMARK.json", w.name, name)
			}
		}

		// Every metric is printed by name exactly once.
		seen := map[string]int{}
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) >= 4 && (f[0] == "e2e" || f[0] == "layer") {
				seen[f[1]]++
				if !nameRE.MatchString(f[1]) {
					t.Errorf("%s: bad metric name %q", w.name, f[1])
				}
			}
		}
		for name := range want {
			if seen[name] != 1 {
				t.Errorf("%s: metric %s printed %d times", w.name, name, seen[name])
			}
		}

		// The layers account for the whole profile.
		var layers, total float64
		for _, m := range res.PerLayer {
			switch {
			case m.Name == "profile.cpu_s":
				total = m.Value
			case strings.HasSuffix(m.Name, "self_s"):
				layers += m.Value
			}
		}
		if math.Abs(layers-total) > 0.01*total {
			t.Errorf("%s: layer self times sum to %g s of a %g s profile", w.name, layers, total)
		}
	}
}

// TestLayerOf pins the attribution rules on the frame names the profiles
// of this repository contain.
func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"switchv2p/internal/eventq.(*Queue).down"}, "eventq.self_s"},
		{[]string{"switchv2p/internal/simnet.(*link).enqueue"}, "simnet.link_self_s"},
		{[]string{"switchv2p/internal/simnet.(*linkEvent).Fire"}, "simnet.link_self_s"},
		{[]string{"switchv2p/internal/simnet.(*Engine).ecmpForward"}, "simnet.fwd_self_s"},
		{[]string{"switchv2p/internal/simnet.(*sharding).runWindow.func1"}, "simnet.shard_self_s"},
		{[]string{"switchv2p/internal/simnet.(*Engine).runSharded"}, "simnet.shard_self_s"},
		{[]string{"switchv2p/internal/core.(*Cache).Lookup"}, "core.self_s"},
		{[]string{"switchv2p/internal/stats.(*Sample).Quantile"}, "other.self_s"},
		{[]string{"sort.Slice"}, "other.self_s"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2"}, "runtime.gc_self_s"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.mallocgc"}, "runtime.gc_self_s"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "switchv2p/internal/packet.New"}, "runtime.malloc_self_s"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched_self_s"},
		{[]string{"runtime.memmove", "switchv2p/internal/eventq.(*Queue).Step"}, "runtime.other_self_s"},
		{nil, "other.self_s"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
