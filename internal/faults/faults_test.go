package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

func ft8(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.New(topology.FT8())
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestValidate(t *testing.T) {
	topo := ft8(t)
	var gw, plain int32 = -1, -1
	for i, h := range topo.Hosts {
		if h.Gateway && gw < 0 {
			gw = int32(i)
		}
		if !h.Gateway && plain < 0 {
			plain = int32(i)
		}
	}
	if gw < 0 || plain < 0 {
		t.Fatal("FT8 should have both gateway and non-gateway hosts")
	}
	nSw, nHost := int32(len(topo.Switches)), int32(len(topo.Hosts))
	sw0, sw1 := topology.SwitchRef(0), topology.SwitchRef(1)
	cases := []struct {
		name string
		ev   Event
		want string // substring of the error; "" means the event is valid
	}{
		{"link ok", Event{Kind: LinkDown, A: sw0, B: sw1}, ""},
		{"loss ok at bounds", Event{Kind: LossStart, A: sw0, B: topology.HostRef(0), LossRate: 1}, ""},
		{"switch ok", Event{Kind: SwitchFail, Switch: nSw - 1}, ""},
		{"gateway ok", Event{Kind: GatewayOutage, Gateway: gw}, ""},
		{"unknown switch node", Event{Kind: LinkDown, A: sw0, B: topology.SwitchRef(nSw)}, "unknown node"},
		{"unknown host node", Event{Kind: LinkUp, A: topology.HostRef(-1), B: sw0}, "unknown node"},
		{"unknown node kind", Event{Kind: LossEnd, A: topology.NodeRef{Kind: 9}, B: sw0}, "unknown node"},
		{"loss rate above 1", Event{Kind: LossStart, A: sw0, B: sw1, LossRate: 1.5}, "outside [0,1]"},
		{"loss rate negative", Event{Kind: LossStart, A: sw0, B: sw1, LossRate: -0.1}, "outside [0,1]"},
		{"loss rate NaN", Event{Kind: LossStart, A: sw0, B: sw1, LossRate: math.NaN()}, "outside [0,1]"},
		{"loss rate +Inf", Event{Kind: LossStart, A: sw0, B: sw1, LossRate: math.Inf(1)}, "outside [0,1]"},
		{"switch too large", Event{Kind: SwitchFail, Switch: nSw}, "out of range"},
		{"switch negative", Event{Kind: SwitchRecover, Switch: -1}, "out of range"},
		{"gateway host too large", Event{Kind: GatewayOutage, Gateway: nHost}, "out of range"},
		{"gateway on plain host", Event{Kind: GatewayRecover, Gateway: plain}, "not a translation gateway"},
		{"unknown kind", Event{Kind: Kind(200)}, "unknown event kind"},
		{"negative time", Event{Kind: SwitchFail, Switch: 0, At: -1}, "negative time"},
	}
	for _, c := range cases {
		err := validate(c.ev, topo)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func TestRandomModelGenerate(t *testing.T) {
	topo := ft8(t)
	ok := RandomModel{Seed: 7, MTBF: 200 * simtime.Microsecond, MTTR: 50 * simtime.Microsecond,
		Horizon: simtime.Time(2 * simtime.Millisecond)}
	rejects := []struct {
		name string
		edit func(*RandomModel)
		want string
	}{
		{"zero MTBF", func(m *RandomModel) { m.MTBF = 0 }, "MTBF > 0"},
		{"negative MTTR", func(m *RandomModel) { m.MTTR = -1 }, "MTTR > 0"},
		{"zero horizon", func(m *RandomModel) { m.Horizon = 0 }, "Horizon > 0"},
		{"switch out of range", func(m *RandomModel) { m.Switches = []int32{int32(len(topo.Switches))} }, "out of range"},
		{"MaxEvents overflow", func(m *RandomModel) { m.MaxEvents = 3 }, "exceeds 3 events"},
	}
	for _, c := range rejects {
		m := ok
		c.edit(&m)
		if evs, err := m.Generate(topo); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %d events, error %v; want an error containing %q", c.name, len(evs), err, c.want)
		}
	}

	first, err := ok.Generate(topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(first)%2 != 0 {
		t.Fatalf("generated %d events, want a non-empty list of fail/recover pairs", len(first))
	}
	second, err := ok.Generate(topo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("same seed produced two different schedules")
	}
	other := ok
	other.Seed = 8
	if third, _ := other.Generate(topo); reflect.DeepEqual(first, third) {
		t.Fatal("a different seed produced the same schedule")
	}
}
