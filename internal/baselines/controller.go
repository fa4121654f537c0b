package baselines

import (
	"sort"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

// Controller is the centralized cache-allocation baseline (Appendix A):
// a controller periodically halts to collect the exact traffic matrix,
// solves the cache-placement optimization, and installs mappings into
// the switches. Switches perform lookups but never learn: placement is
// entirely controller-driven. The paper uses Z3 on the full ILP and
// notes it is impractical. Here a round of at most exactVarLimit demands
// is placed exactly at the source ToRs (topPerToR), a larger one by lazy
// greedy over ToR, spine and core (substitution in DESIGN.md §1).
type Controller struct {
	topo *topology.Topology
	// Interval between controller invocations (150/300 µs in §A.2).
	Interval simtime.Duration
	// LinesPerSwitch is capacity M of each switch.
	LinesPerSwitch int

	installed []map[netaddr.VIP]netaddr.PIP // per switch
	// The traffic matrix and the invocation-timer flag are global by
	// design — the controller is centralized — so every switch's events
	// write them, and the scheme runs on the serial engine only (it is
	// not on harness.ShardSupported's whitelist).
	counts    map[pairKey]int64
	scheduled bool

	// Stats: aggregate counters, read only after the run.
	Lookups, Hits int64
	Invocations   int64
	ExactSolves   int64
	GreedySolves  int64
}

type pairKey struct {
	src, dst netaddr.VIP
}

// NewController builds the baseline.
func NewController(topo *topology.Topology, linesPerSwitch int, interval simtime.Duration) *Controller {
	c := &Controller{
		topo:           topo,
		Interval:       interval,
		LinesPerSwitch: linesPerSwitch,
		counts:         make(map[pairKey]int64),
	}
	c.installed = make([]map[netaddr.VIP]netaddr.PIP, len(topo.Switches))
	for i := range c.installed {
		c.installed[i] = make(map[netaddr.VIP]netaddr.PIP)
	}
	return c
}

// Name implements simnet.Scheme.
func (*Controller) Name() string { return "Controller" }

// Installed exposes a switch's installed table size (tests).
func (c *Controller) Installed(sw int32) int { return len(c.installed[sw]) }

// FlushCache implements simnet.Scheme: a failed switch loses its
// installed rules until the controller's next placement reinstalls them.
func (c *Controller) FlushCache(sw int32) { clear(c.installed[sw]) }

// SenderResolve implements simnet.Scheme.
func (c *Controller) SenderResolve(e *simnet.Engine, host int32, p *packet.Packet) bool {
	c.ensureScheduled(e)
	if !p.Resolved {
		p.DstPIP = e.GatewayFor(p.SrcPIP, p.FlowID)
	}
	return true
}

// SwitchArrive implements simnet.Scheme.
func (c *Controller) SwitchArrive(e *simnet.Engine, sw int32, from topology.NodeRef, p *packet.Packet) bool {
	switch p.Kind {
	case packet.Data, packet.Ack:
	default:
		return true
	}
	role := c.topo.Switches[sw].Role
	// ToRs record the connection matrix for the controller.
	if role.IsToR() && from.Kind == topology.KindHost && p.SrcVIP.IsValid() && p.DstVIP.IsValid() {
		c.counts[pairKey{p.SrcVIP, p.DstVIP}]++
	}
	if !p.Resolved {
		c.Lookups++
		if pip, ok := c.installed[sw][p.DstVIP]; ok && pip != p.StalePIP {
			p.DstPIP = pip
			p.Resolved = true
			p.HitSwitch = int32(sw)
			c.Hits++
		}
	}
	return true
}

// HostMisdeliver implements simnet.Scheme.
func (c *Controller) HostMisdeliver(e *simnet.Engine, host int32, p *packet.Packet) {
	p.StalePIP = e.Topo.Hosts[host].PIP
	p.Resolved = false
	p.DstPIP = e.GatewayFor(p.SrcPIP, p.FlowID)
	e.Resend(host, p)
}

func (c *Controller) ensureScheduled(e *simnet.Engine) {
	if c.scheduled {
		return
	}
	c.scheduled = true
	var tick func()
	tick = func() {
		if !c.invoke(e) {
			// No traffic since the last round: go quiet so the event
			// queue can drain; the next send re-arms the timer.
			c.scheduled = false
			return
		}
		e.Q.After(c.Interval, tick)
	}
	e.Q.After(c.Interval, tick)
}

// invoke runs one controller round: snapshot the traffic matrix, solve
// the placement, install. It reports whether any traffic was observed.
func (c *Controller) invoke(e *simnet.Engine) bool {
	c.Invocations++
	pairs := c.snapshotPairs(e)
	if len(pairs) == 0 {
		return false
	}
	placement := c.place(e, pairs)
	for sw := range c.installed {
		c.installed[sw] = placement[sw]
	}
	return true
}

type pairDemand struct {
	srcToR int32
	dst    netaddr.VIP
	dstPIP netaddr.PIP
	dstToR int32
	count  int64
}

// snapshotPairs drains the traffic matrix into per-(srcToR,dst) demands
// with current authoritative destinations.
func (c *Controller) snapshotPairs(e *simnet.Engine) []pairDemand {
	agg := make(map[[2]int64]*pairDemand)
	for k, n := range c.counts {
		srcHost, ok := e.Net.HostOf(k.src)
		if !ok {
			continue
		}
		dstHost, ok2 := e.Net.HostOf(k.dst)
		if !ok2 {
			continue
		}
		srcToR := c.topo.Hosts[srcHost].ToR
		key := [2]int64{int64(srcToR), int64(k.dst)}
		if d := agg[key]; d != nil {
			d.count += n
		} else {
			agg[key] = &pairDemand{
				srcToR: srcToR,
				dst:    k.dst,
				dstPIP: c.topo.Hosts[dstHost].PIP,
				dstToR: c.topo.Hosts[dstHost].ToR,
				count:  n,
			}
		}
	}
	c.counts = make(map[pairKey]int64)
	keys := make([][2]int64, 0, len(agg))
	for key := range agg {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		di, dj := agg[keys[i]], agg[keys[j]]
		if di.count != dj.count {
			return di.count > dj.count
		}
		if di.srcToR != dj.srcToR {
			return di.srcToR < dj.srcToR
		}
		return di.dst < dj.dst
	})
	out := make([]pairDemand, 0, len(keys))
	for _, key := range keys {
		out = append(out, *agg[key])
	}
	return out
}

// hopCost converts a switch-to-switch distance into a latency estimate.
func (c *Controller) hopCost(e *simnet.Engine, hops int) float64 {
	return float64(hops) * float64(e.Topo.Cfg.LinkDelay)
}

// saving computes the per-packet latency saved by serving demand d from
// switch s instead of the gateway path.
func (c *Controller) saving(e *simnet.Engine, d *pairDemand, s int32) float64 {
	// Mean gateway detour: srcToR -> gwToR -> dstToR plus processing.
	gws := e.Gateways()
	gwHops := 0.0
	for _, g := range gws {
		gwToR := c.topo.Hosts[g].ToR
		gwHops += float64(c.topo.SwitchDistance(d.srcToR, gwToR) + 2 + c.topo.SwitchDistance(gwToR, d.dstToR))
	}
	gwHops /= float64(len(gws))
	viaGW := c.hopCost(e, int(gwHops)) + float64(e.Cfg.GatewayDelay)
	viaS := c.hopCost(e, c.topo.SwitchDistance(d.srcToR, s)+c.topo.SwitchDistance(s, d.dstToR))
	if viaS >= viaGW {
		return 0
	}
	return viaGW - viaS
}

// candidates returns the uplink switches that could serve a demand: the
// source ToR, the spines of its pod, and the core layer.
func (c *Controller) candidates(d *pairDemand) []int32 {
	out := []int32{d.srcToR}
	pod := c.topo.Switches[d.srcToR].Pod
	for _, sw := range c.topo.Switches {
		if sw.Role.IsSpine() && sw.Pod == pod {
			out = append(out, sw.Idx)
		}
		if sw.Role == topology.RoleCore {
			out = append(out, sw.Idx)
		}
	}
	return out
}

// exactVarLimit picks between two policies, not a solver budget: moving
// it moves results.
const exactVarLimit = 24

// place computes the new per-switch mapping tables.
func (c *Controller) place(e *simnet.Engine, pairs []pairDemand) []map[netaddr.VIP]netaddr.PIP {
	if len(pairs) <= exactVarLimit {
		return c.placeExact(e, pairs)
	}
	return c.placeGreedy(e, pairs)
}

// placeExact solves the ToR-restricted ILP exactly.
func (c *Controller) placeExact(e *simnet.Engine, pairs []pairDemand) []map[netaddr.VIP]netaddr.PIP {
	c.ExactSolves++
	obj := make([]float64, len(pairs))
	tor := make([]int32, len(pairs))
	for i := range pairs {
		d := &pairs[i]
		obj[i] = float64(d.count) * c.saving(e, d, d.srcToR)
		tor[i] = d.srcToR
	}
	placement := c.emptyPlacement()
	for i, selected := range topPerToR(obj, tor, c.LinesPerSwitch) {
		if selected {
			placement[tor[i]][pairs[i].dst] = pairs[i].dstPIP
		}
	}
	return placement
}

// topPerToR maximizes Σ obj[i] over the chosen demands with at most m per
// ToR tor[i]: a partition matroid, so taking the best positive demands
// while their ToR has room is optimal. sort.Slice over the indices fixes
// how ties at a full ToR break.
func topPerToR(obj []float64, tor []int32, m int) []bool {
	order := make([]int, len(obj))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return obj[order[a]] > obj[order[b]] })
	held := make(map[int32]int)
	chosen := make([]bool, len(obj))
	for _, i := range order {
		if obj[i] <= 0 {
			break
		}
		if held[tor[i]] < m {
			held[tor[i]]++
			chosen[i] = true
		}
	}
	return chosen
}

// placeGreedy is the scalable lazy-greedy maximum-coverage placement
// over all uplink candidates, capturing cross-pair sharing at spines and
// cores.
func (c *Controller) placeGreedy(e *simnet.Engine, pairs []pairDemand) []map[netaddr.VIP]netaddr.PIP {
	c.GreedySolves++
	placement := c.emptyPlacement()
	capacity := make([]int, len(c.topo.Switches))
	for i := range capacity {
		capacity[i] = c.LinesPerSwitch
	}
	// bestServed[pair index] = best saving already achieved.
	bestServed := make([]float64, len(pairs))

	// Candidate moves: (switch, dst VIP) gathered from each demand's
	// uplink. covers[(s,dst)] = pair indices that could be served.
	type moveKey struct {
		s   int32
		dst netaddr.VIP
	}
	covers := make(map[moveKey][]int)
	pipOf := make(map[netaddr.VIP]netaddr.PIP)
	for i := range pairs {
		d := &pairs[i]
		pipOf[d.dst] = d.dstPIP
		for _, s := range c.candidates(d) {
			covers[moveKey{s, d.dst}] = append(covers[moveKey{s, d.dst}], i)
		}
	}
	gain := func(k moveKey) float64 {
		g := 0.0
		for _, i := range covers[k] {
			d := &pairs[i]
			if sv := float64(d.count) * c.saving(e, d, k.s); sv > bestServed[i] {
				g += sv - bestServed[i]
			}
		}
		return g
	}
	// Lazy greedy with a sorted slice re-evaluated on pop.
	type scored struct {
		k moveKey
		g float64
	}
	moveKeys := make([]moveKey, 0, len(covers))
	for k := range covers {
		moveKeys = append(moveKeys, k)
	}
	sort.Slice(moveKeys, func(i, j int) bool {
		if moveKeys[i].s != moveKeys[j].s {
			return moveKeys[i].s < moveKeys[j].s
		}
		return moveKeys[i].dst < moveKeys[j].dst
	})
	heap := make([]scored, 0, len(moveKeys))
	for _, k := range moveKeys {
		heap = append(heap, scored{k, gain(k)})
	}
	sort.Slice(heap, func(i, j int) bool {
		if heap[i].g != heap[j].g {
			return heap[i].g > heap[j].g
		}
		if heap[i].k.s != heap[j].k.s {
			return heap[i].k.s < heap[j].k.s
		}
		return heap[i].k.dst < heap[j].k.dst
	})
	for len(heap) > 0 {
		top := heap[0]
		heap = heap[1:]
		if top.g <= 0 {
			break
		}
		if capacity[top.k.s] == 0 {
			continue
		}
		// Lazy re-evaluation: the stored gain may be stale.
		if g := gain(top.k); g < top.g {
			if g <= 0 {
				continue
			}
			// Re-insert in order.
			idx := sort.Search(len(heap), func(i int) bool { return heap[i].g <= g })
			heap = append(heap, scored{})
			copy(heap[idx+1:], heap[idx:])
			heap[idx] = scored{top.k, g}
			continue
		}
		// Take the move.
		capacity[top.k.s]--
		placement[top.k.s][top.k.dst] = pipOf[top.k.dst]
		for _, i := range covers[top.k] {
			d := &pairs[i]
			if sv := float64(d.count) * c.saving(e, d, top.k.s); sv > bestServed[i] {
				bestServed[i] = sv
			}
		}
	}
	return placement
}

func (c *Controller) emptyPlacement() []map[netaddr.VIP]netaddr.PIP {
	out := make([]map[netaddr.VIP]netaddr.PIP, len(c.topo.Switches))
	for i := range out {
		out[i] = make(map[netaddr.VIP]netaddr.PIP)
	}
	return out
}
