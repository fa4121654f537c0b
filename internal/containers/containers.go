// Package containers generates deterministic container-density
// workloads: hundreds of containers per host running a service mesh
// whose east-west traffic is short-flow-heavy RPC between services.
// It is the workload half of the host-vs-switch caching crossover
// (the comparison against ONCache-style host caches, PAPERS.md): the
// per-host container density, the service fan-out, and the destination
// reuse distance are the three knobs that decide whether translations
// are best cached at the host or in the network.
//
// Two entry points:
//
//   - Place provisions Spec.PerHost containers on every server through
//     the vnet ReserveVIP/PlaceVM churn APIs, striping services across
//     hosts and tenants across services (the internal/core tenancy
//     model); Deployment.Workload then generates the mesh traffic over
//     the placed containers.
//   - Generator adapts the same traffic model to the plain
//     internal/trace generator interface (registered as "containers"),
//     deriving the service structure from the already-placed VIP
//     population, so the harness and cmd/tracegen can consume it like
//     any other trace.
package containers

import (
	"fmt"
	"math/rand"
	"sort"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/simtime"
	"switchv2p/internal/trace"
	"switchv2p/internal/transport"
	"switchv2p/internal/vnet"
)

// Spec parameterizes the container deployment and its traffic.
type Spec struct {
	// PerHost is the number of containers placed on every server
	// (container density, the crossover's x-axis). Only used by Place;
	// Generator works over whatever population it is handed.
	PerHost int
	// Services is the number of services the containers are striped
	// across.
	Services int
	// Tenants is the number of tenants the services are striped across
	// (service s belongs to tenant 1 + s mod Tenants).
	Tenants int
	// FanOut is the number of downstream services each service calls per
	// request (the call-graph breadth).
	FanOut int
	// Reuse in [0,1] is the probability that a call goes to one of the
	// client host's recently used endpoints instead of a fresh replica —
	// the reuse-distance knob. Affinity is per (client host, downstream
	// service), modeling node-local connection pools (kube-proxy /
	// per-node sidecar): high Reuse means short reuse distances
	// concentrated per host (host caches thrive), low Reuse means long
	// reuse distances only in-network aggregation can capture.
	Reuse float64
	// AffinitySize is how many recent endpoints a client host remembers
	// per downstream service (the connection pool size).
	AffinitySize int
	// RPCBytes is the flow-size distribution (default AlibabaRPCCDF:
	// small request/response payloads).
	RPCBytes *trace.CDF
}

// withDefaults fills zero values.
func (s Spec) withDefaults() Spec {
	if s.PerHost == 0 {
		s.PerHost = 64
	}
	if s.Services == 0 {
		s.Services = 32
	}
	if s.Tenants == 0 {
		s.Tenants = 4
	}
	if s.FanOut == 0 {
		s.FanOut = 3
	}
	if s.Reuse == 0 {
		s.Reuse = 0.7
	}
	if s.AffinitySize == 0 {
		s.AffinitySize = 4
	}
	if s.RPCBytes == nil {
		s.RPCBytes = trace.AlibabaRPCCDF()
	}
	return s
}

// Validate checks the spec.
func (s Spec) Validate() error {
	switch {
	case s.PerHost < 0:
		return fmt.Errorf("containers: negative per-host density")
	case s.Services < 2:
		return fmt.Errorf("containers: need at least 2 services, have %d", s.Services)
	case s.Tenants < 1:
		return fmt.Errorf("containers: need at least 1 tenant")
	case s.FanOut < 1:
		return fmt.Errorf("containers: need fan-out >= 1")
	case s.Reuse < 0 || s.Reuse > 1:
		return fmt.Errorf("containers: reuse %v outside [0,1]", s.Reuse)
	case s.AffinitySize < 1:
		return fmt.Errorf("containers: need affinity size >= 1")
	}
	return nil
}

// Deployment is a placed container fleet.
type Deployment struct {
	Spec Spec
	// VIPs is every container, in placement order (host-major).
	VIPs []netaddr.VIP
	// Services holds each service's replica containers.
	Services [][]netaddr.VIP
	// TenantOf maps each service index to its tenant.
	TenantOf []vnet.TenantID
	// HostOf records each container's server, for the per-host affinity
	// model.
	HostOf map[netaddr.VIP]int32
}

// Place provisions spec.PerHost containers on every server through the
// ReserveVIP/PlaceVM churn APIs. Services are striped across hosts (a
// host runs replicas of many services, a service spreads over many
// hosts, Kubernetes-style) and across tenants. Placement is a pure
// function of the topology, spec and seed.
func Place(net *vnet.Net, spec Spec, seed int64) (*Deployment, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	servers := net.Topology().Servers()
	total := len(servers) * spec.PerHost
	if total < spec.Services {
		return nil, fmt.Errorf("containers: %d containers cannot cover %d services", total, spec.Services)
	}
	rng := rand.New(rand.NewSource(seed))
	// Round-robin service assignment, shuffled so host↔service alignment
	// carries no accidental structure.
	svcOf := make([]int, total)
	for i := range svcOf {
		svcOf[i] = i % spec.Services
	}
	rng.Shuffle(total, func(i, j int) { svcOf[i], svcOf[j] = svcOf[j], svcOf[i] })

	d := &Deployment{
		Spec:     spec,
		VIPs:     make([]netaddr.VIP, 0, total),
		Services: make([][]netaddr.VIP, spec.Services),
		TenantOf: make([]vnet.TenantID, spec.Services),
		HostOf:   make(map[netaddr.VIP]int32, total),
	}
	for s := range d.TenantOf {
		d.TenantOf[s] = vnet.TenantID(1 + s%spec.Tenants)
	}
	idx := 0
	for _, server := range servers {
		for j := 0; j < spec.PerHost; j++ {
			svc := svcOf[idx]
			idx++
			vip := net.ReserveVIP()
			if err := net.PlaceVM(vip, server, d.TenantOf[svc]); err != nil {
				return nil, fmt.Errorf("containers: placing container %d: %w", idx-1, err)
			}
			d.VIPs = append(d.VIPs, vip)
			d.Services[svc] = append(d.Services[svc], vip)
			d.HostOf[vip] = server
		}
	}
	return d, nil
}

// Workload generates the deployment's service-mesh traffic. cfg.VIPs is
// ignored (the deployment's containers are the population); the load
// calibration, duration, flow cap and seed come from cfg.
func (d *Deployment) Workload(cfg trace.Config) (*trace.Workload, error) {
	cfg.VIPs = d.VIPs
	return generate(d.Services, d.Spec, cfg, func(vip netaddr.VIP) int32 { return d.HostOf[vip] })
}

// Generator adapts the traffic model to the internal/trace generator
// interface: the service structure is derived from cfg.VIPs (a seeded
// partition into spec.Services groups), so the workload is consumable
// wherever a trace name is — the population is simply whatever the
// harness placed. Registered as trace.Generators["containers"] with the
// default spec.
func Generator(spec Spec) func(trace.Config) (*trace.Workload, error) {
	return func(cfg trace.Config) (*trace.Workload, error) {
		spec := spec.withDefaults()
		// Shrink the mesh for tiny populations (tests) instead of failing:
		// every service needs at least one replica.
		if n := len(cfg.VIPs) / 2; spec.Services > n {
			spec.Services = n
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x636f6e74)) // "cont": distinct from the flow stream
		perm := rng.Perm(len(cfg.VIPs))
		svcs := make([][]netaddr.VIP, spec.Services)
		for i, pi := range perm {
			s := i % spec.Services
			svcs[s] = append(svcs[s], cfg.VIPs[pi])
		}
		// Without placement information, consecutive PerHost-sized chunks
		// of the population stand in as hosts for the affinity model.
		pseudoHost := make(map[netaddr.VIP]int32, len(cfg.VIPs))
		for i, vip := range cfg.VIPs {
			pseudoHost[vip] = int32(i / spec.PerHost)
		}
		return generate(svcs, spec, cfg, func(vip netaddr.VIP) int32 { return pseudoHost[vip] })
	}
}

func init() {
	trace.Generators["containers"] = Generator(Spec{})
}

// stackDepthCDF is the affinity-stack depth distribution (geometric,
// MRU-heavy): when a call reuses a recent endpoint, how far down the
// client's MRU stack it reaches. Built with the trace CDF machinery so
// the reuse-distance model matches how flow sizes are drawn.
var stackDepthCDF = trace.MustCDF([][2]float64{
	{1, 0.50}, {2, 0.75}, {3, 0.875}, {4, 0.9375}, {6, 0.98}, {8, 1.0},
})

// affKey identifies a client host's connection pool toward one
// downstream service.
type affKey struct {
	host int32
	svc  int
}

// generate produces the east-west mesh traffic over the given service
// groups. Each request picks a client service and container, then calls
// FanOut downstream services from the service's (deterministic) edge
// list; every call is one short TCP flow whose destination replica is
// drawn through the per-host affinity model.
func generate(svcs [][]netaddr.VIP, spec Spec, cfg trace.Config, hostOf func(netaddr.VIP) int32) (*trace.Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for s, members := range svcs {
		if len(members) == 0 {
			return nil, fmt.Errorf("containers: service %d has no replicas", s)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Deterministic call graph: each service calls FanOut distinct
	// downstream services.
	nSvc := len(svcs)
	fanOut := spec.FanOut
	if fanOut > nSvc-1 {
		fanOut = nSvc - 1
	}
	edges := make([][]int, nSvc)
	for s := range edges {
		seen := make(map[int]bool, fanOut)
		for len(edges[s]) < fanOut {
			t := rng.Intn(nSvc)
			if t == s || seen[t] {
				continue
			}
			seen[t] = true
			edges[s] = append(edges[s], t)
		}
	}

	// Load calibration: flows so that offered bytes ≈ Load × Servers ×
	// HostLinkBps/8 × Duration; each request contributes fanOut flows.
	mean := spec.RPCBytes.Mean()
	budget := cfg.Load * float64(cfg.Servers) * float64(cfg.HostLinkBps) / 8 * cfg.Duration.Seconds()
	nFlows := int(budget / mean)
	if cfg.MaxFlows > 0 && nFlows > cfg.MaxFlows {
		nFlows = cfg.MaxFlows
	}
	if nFlows < fanOut {
		nFlows = fanOut
	}
	nReqs := (nFlows + fanOut - 1) / fanOut

	starts := make([]simtime.Time, nReqs)
	for i := range starts {
		starts[i] = simtime.Time(rng.Int63n(int64(cfg.Duration)))
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	// hopStagger models the service's processing time before it fans out
	// to its dependencies.
	const hopStagger = 2 * simtime.Microsecond

	affinity := make(map[affKey][]netaddr.VIP)
	w := &trace.Workload{Name: "containers"}
	id := uint64(1)
	for r := 0; r < nReqs && len(w.Flows) < nFlows; r++ {
		cs := rng.Intn(nSvc) // client service
		client := svcs[cs][rng.Intn(len(svcs[cs]))]
		for hop, ds := range edges[cs] {
			if len(w.Flows) >= nFlows {
				break
			}
			dst := pickEndpoint(rng, affinity, hostOf(client), ds, svcs[ds], spec)
			w.Flows = append(w.Flows, transport.FlowSpec{
				ID: id, Src: client, Dst: dst, Proto: transport.TCP,
				Bytes: int(spec.RPCBytes.Sample(rng)) + 1,
				Start: starts[r].Add(simtime.Duration(hop) * hopStagger),
			})
			id++
		}
	}
	return w, nil
}

// pickEndpoint draws the destination replica for one call: with
// probability spec.Reuse one of the client host's pooled endpoints
// (depth drawn MRU-heavy from stackDepthCDF), otherwise a fresh replica
// that enters the front of the pool.
func pickEndpoint(rng *rand.Rand, affinity map[affKey][]netaddr.VIP, host int32, svc int, members []netaddr.VIP, spec Spec) netaddr.VIP {
	key := affKey{host, svc}
	aff := affinity[key]
	if len(aff) > 0 && rng.Float64() < spec.Reuse {
		depth := int(stackDepthCDF.Sample(rng)) - 1
		if depth < 0 {
			depth = 0
		}
		if depth >= len(aff) {
			depth = len(aff) - 1
		}
		dst := aff[depth]
		// Promote to MRU.
		copy(aff[1:depth+1], aff[:depth])
		aff[0] = dst
		return dst
	}
	dst := members[rng.Intn(len(members))]
	aff = append(aff, 0)
	copy(aff[1:], aff)
	aff[0] = dst
	if len(aff) > spec.AffinitySize {
		aff = aff[:spec.AffinitySize]
	}
	affinity[key] = aff
	return dst
}
