package faults_test

import (
	"math"
	"testing"

	"switchv2p/internal/faults"
	"switchv2p/internal/harness"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/trace"
	"switchv2p/internal/transport"
)

// tinyFT8 is the smallest fabric the fuzz targets run on: two pods of two
// racks and two spines, four cores, two servers a rack and two gateways —
// 12 switches and 10 hosts.
func tinyFT8() topology.Config {
	c := topology.FT8()
	c.Pods, c.RacksPerPod, c.SpinesPerPod, c.Cores = 2, 2, 2, 4
	c.ServersPerRack = 2
	c.GatewayPods, c.GatewaysPerPod = []int{0}, 2
	return c
}

// fuzzRate maps a byte to a rate in [0, 1.02], or to one of the values
// a validator must turn away.
func fuzzRate(b byte) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return -0.25
	case 252:
		return 1.5
	}
	return float64(b) / 250
}

// fuzzNode maps a byte to a node reference: the top two bits pick the
// kind (two of the four are no kind at all), the rest an index from -1
// up, partly out of range.
func fuzzNode(b byte) topology.NodeRef {
	return topology.NodeRef{Kind: topology.NodeKind(b >> 6), Idx: int32(b&15) - 1}
}

// FuzzFaultSchedule runs fault schedules the fuzzer writes against a tiny
// FT8 world carrying six TCP flows. Every schedule is either rejected
// with an error — by harness.Build, or by the engine when the injector
// applies it — or runs without a panic, drains, and accounts for every
// packet: ConservationGap() == 0, no packet past its hop budget, every
// flow completed or timed out.
//
// Input: byte 0 picks the scheme, byte 1 is the loss seed; then every
// six bytes are one event: kind (two of ten values are no kind), time in
// signed 2 µs steps, nodes A and B (fuzzNode), the switch or gateway
// index as a signed byte, and the loss rate (fuzzRate). Seed corpus:
// f.Add below and testdata/fuzz/FuzzFaultSchedule.
func FuzzFaultSchedule(f *testing.F) {
	// Switch s is node byte s+1, host h is 0x40|(h+1); on tinyFT8 hosts 4
	// and 5 are the gateways, under switch 1.
	//
	// A fabric link down and up, a loss window on a core link, a ToR
	// crash and restart.
	f.Add([]byte{0, 1,
		0, 10, 0x01, 0x03, 0, 0, 1, 60, 0x01, 0x03, 0, 0,
		6, 5, 0x07, 0x09, 0, 125, 7, 40, 0x07, 0x09, 0, 0,
		2, 15, 0, 0, 4, 0, 3, 70, 0, 0, 4, 0})
	// Both gateways dark for 90 µs, and a host link that never recovers.
	f.Add([]byte{3, 7,
		4, 5, 0, 0, 4, 0, 4, 5, 0, 0, 5, 0, 5, 50, 0, 0, 4, 0, 5, 50, 0, 0, 5, 0,
		0, 0, 0x47, 0x05, 0, 0})
	// Rejected: an unknown kind, a negative time, a switch that does not
	// exist and a NaN loss rate.
	f.Add([]byte{1, 2, 9, 5, 0, 0, 0, 0, 2, 0xf0, 0, 0, 1, 0, 2, 0, 0, 0, 40, 0, 6, 0, 0x07, 0x09, 0, 255})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		if len(in) > 2+6*24 {
			in = in[:2+6*24]
		}
		var schedule []faults.Event
		for i := 2; i+6 <= len(in); i += 6 {
			b := in[i : i+6]
			target := int32(int8(b[4]))
			schedule = append(schedule, faults.Event{
				Kind: faults.Kind(b[0] % 10), At: simtime.Time(int8(b[1])) * 2 * simtime.Time(simtime.Microsecond),
				A: fuzzNode(b[2]), B: fuzzNode(b[3]), Switch: target, Gateway: target, LossRate: fuzzRate(b[5]),
			})
		}
		cfg := harness.Config{
			Topo:     tinyFT8(),
			VMs:      32,
			Scheme:   harness.AllSchemes[int(in[0])%len(harness.AllSchemes)],
			Seed:     int64(in[1]) + 1,
			Workload: &trace.Workload{Name: "custom"},
			Faults:   &faults.Config{Schedule: schedule, LossSeed: int64(in[1])},
		}
		w, err := harness.Build(cfg)
		if err != nil {
			return // rejected before the run
		}
		for i := 0; i < 6; i++ {
			w.Agent.AddFlow(transport.FlowSpec{
				ID: uint64(i + 1), Src: w.VIPs[i], Dst: w.VIPs[(7*i+11)%len(w.VIPs)], Proto: transport.TCP,
				Bytes: 20_000, Start: simtime.Time(i) * 20 * simtime.Time(simtime.Microsecond),
			})
		}
		runErr := w.Run(simtime.Never) // an error: the engine rejected an event as it applied it
		e := w.Engine
		if n := e.Q.Len(); n != 0 {
			t.Fatalf("%d events pending after the run (injector: %v)", n, runErr)
		}
		if gap := e.ConservationGap(); gap != 0 || e.C.LoopDrops != 0 {
			t.Fatalf("%d packets unaccounted for, %d loop drops (injector: %v): %+v", gap, e.C.LoopDrops, runErr, e.C)
		}
		if s := w.Agent.Summarize(); s.Completed+s.TimedOut != s.Flows {
			t.Fatalf("completed %d + timed out %d != %d flows (injector: %v)", s.Completed, s.TimedOut, s.Flows, runErr)
		}
	})
}
