package core

import (
	"switchv2p/internal/topology"
)

// Heterogeneous memory allocation (§4 "Heterogeneous memory
// allocation"): the paper uses a uniform per-switch split but notes that
// different allocations might be beneficial (e.g. a ToR-only cache
// reduces Hadoop FCT but not first-packet latency) and leaves policy
// design as future work. AllocToROnly builds the SizeFor function for
// that example, for use in Options.SizeFor; uniform is the default
// LinesPerSwitch.

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
