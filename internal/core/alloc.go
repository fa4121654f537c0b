package core

import (
	"switchv2p/internal/topology"
)

// Heterogeneous memory allocation policies (§4 "Heterogeneous memory
// allocation"): the paper uses a uniform per-switch split but notes that
// different allocations might be beneficial (e.g. a ToR-only cache
// reduces Hadoop FCT but not first-packet latency) and leaves policy
// design as future work. These constructors build SizeFor functions
// that divide an aggregate entry budget according to a policy, for use
// in Options.SizeFor.

// AllocToROnly gives the whole budget to the ToR layer (including
// gateway ToRs), evenly.
func AllocToROnly(topo *topology.Topology, total int) func(topology.Switch) int {
	n := 0
	for _, sw := range topo.Switches {
		if sw.Role.IsToR() {
			n++
		}
	}
	per := 0
	if n > 0 {
		per = total / n
	}
	return func(sw topology.Switch) int {
		if sw.Role.IsToR() {
			return per
		}
		return 0
	}
}

// AllocWeighted splits the budget across the three layers by weight
// (e.g. 1:2:4 gives cores twice a spine's share and four times a ToR's)
// and then evenly within each layer. Zero-weight layers get no cache.
func AllocWeighted(topo *topology.Topology, total int, torW, spineW, coreW float64) func(topology.Switch) int {
	var nTor, nSpine, nCore int
	for _, sw := range topo.Switches {
		switch {
		case sw.Role.IsToR():
			nTor++
		case sw.Role.IsSpine():
			nSpine++
		default:
			nCore++
		}
	}
	weightSum := torW*float64(nTor) + spineW*float64(nSpine) + coreW*float64(nCore)
	per := func(w float64) int {
		if weightSum == 0 {
			return 0
		}
		return int(float64(total) * w / weightSum)
	}
	torPer, spinePer, corePer := per(torW), per(spineW), per(coreW)
	return func(sw topology.Switch) int {
		switch {
		case sw.Role.IsToR():
			return torPer
		case sw.Role.IsSpine():
			return spinePer
		default:
			return corePer
		}
	}
}

// AllocBandwidthProportional sizes each switch proportionally to the
// traffic volume it is expected to process: spines and cores aggregate
// many racks' flows, so they receive shares proportional to their fan-in
// (racks per pod for spines, pods for cores).
func AllocBandwidthProportional(topo *topology.Topology, total int) func(topology.Switch) int {
	cfg := topo.Cfg
	return AllocWeighted(topo, total, 1, float64(cfg.RacksPerPod), float64(cfg.Pods))
}
