package scenario

import (
	"fmt"
	"math"
	"testing"

	"switchv2p/internal/harness"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/vnet"
)

// fuzzLoad maps a byte to a load factor in [0, 2), or to one Validate
// must turn away.
func fuzzLoad(b byte) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return -0.5
	}
	return float64(b%64) / 32
}

// FuzzSpecValidate runs scenario specs the fuzzer writes on a tiny FT8
// world (two pods of two racks, two gateways). Every spec is either
// rejected with an error — by Validate or by the planner — or runs
// without a panic, drains once the scenario's horizon has passed, and
// accounts for every packet: ConservationGap() == 0 and no packet past
// its hop budget.
//
// Input: byte 0 picks the scheme, byte 1 the population (8 + b VMs),
// byte 2 the phase count (mod 5), byte 3 the flow budget (signed), byte
// 4 the churn tenant (255: one past the VNI space), byte 5 the drain
// grace (signed, 20 µs steps), byte 6 the seed; then eleven bytes a
// phase: named (non-zero), duration (signed, 4 µs steps), load start
// and end (fuzzLoad), arrivals, departures and migrations (signed / 8),
// gateways drained and restored and upgrade waves (signed mod 4), and
// the upgrade downtime (signed, 2 µs steps). Seed corpus: f.Add below
// and testdata/fuzz/FuzzSpecValidate.
func FuzzSpecValidate(f *testing.F) {
	// A three-phase day: ramp, churn with migrations, a drain and a
	// rolling upgrade.
	f.Add([]byte{0, 56, 3, 40, 2, 10, 1,
		1, 50, 4, 32, 0, 0, 0, 0, 0, 0, 0,
		1, 50, 32, 32, 16, 16, 16, 0, 0, 0, 0,
		1, 50, 24, 8, 0, 0, 8, 1, 0, 2, 5})
	// Rejected: a NaN load, then a negative duration.
	f.Add([]byte{2, 20, 2, 20, 0, 0, 2, 1, 50, 255, 10, 0, 0, 0, 0, 0, 0, 0, 1, 0xf0, 10, 10, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 7 {
			return
		}
		in = in[:min(len(in), 7+11*4)]
		topo := topology.FT8()
		topo.Pods, topo.RacksPerPod, topo.SpinesPerPod, topo.Cores = 2, 2, 2, 4
		topo.ServersPerRack = 2
		topo.GatewayPods, topo.GatewaysPerPod = []int{0}, 2
		spec := Spec{
			Name: "fuzz",
			Base: harness.Config{
				Topo: topo, VMs: 8 + int(in[1]), Load: 0.3, Seed: int64(in[6]) + 1,
				Scheme: harness.AllSchemes[int(in[0])%len(harness.AllSchemes)],
			},
			FlowBudget:  int(int8(in[3])),
			ChurnTenant: vnet.TenantID(in[4]),
			DrainGrace:  simtime.Duration(int8(in[5])) * 20 * simtime.Microsecond,
		}
		if in[4] == 255 {
			spec.ChurnTenant = vnet.MaxTenantID + 1
		}
		b := in[7:]
		for k := 0; k < int(in[2])%5 && len(b) >= 11; k++ {
			p := Phase{
				Duration:  simtime.Duration(int8(b[1])) * 4 * simtime.Microsecond,
				LoadStart: fuzzLoad(b[2]), LoadEnd: fuzzLoad(b[3]),
				Arrivals: int(int8(b[4])) / 8, Departures: int(int8(b[5])) / 8, Migrations: int(int8(b[6])) / 8,
				DrainGateways: int(int8(b[7])) % 4, RestoreGateways: int(int8(b[8])) % 4, UpgradeWaves: int(int8(b[9])) % 4,
				UpgradeDowntime: simtime.Duration(int8(b[10])) * 2 * simtime.Microsecond,
			}
			if b[0] != 0 {
				p.Name = fmt.Sprintf("phase-%d", k)
			}
			spec.Phases = append(spec.Phases, p)
			b = b[11:]
		}
		rep, err := Run(spec)
		if err != nil {
			return // rejected
		}
		e := rep.Final.World.Engine
		e.Run(simtime.Never) // flows still running at the horizon finish or time out
		if n := e.Q.Len(); n != 0 {
			t.Fatalf("%d events pending after the drain", n)
		}
		if gap := e.ConservationGap(); gap != 0 || e.C.LoopDrops != 0 {
			t.Fatalf("%d packets unaccounted for, %d loop drops: %+v", gap, e.C.LoopDrops, e.C)
		}
	})
}
