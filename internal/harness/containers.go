package harness

import (
	"switchv2p/internal/containers"
	"switchv2p/internal/simtime"
)

// CrossoverPoint is one cell of the host-vs-switch caching crossover
// sweep: one (container density, reuse, cache size, scheme) run.
type CrossoverPoint struct {
	PerHost       int     // containers per host
	Reuse         float64 // reuse-distance knob (high = short reuse distances)
	CacheFraction float64

	Scheme         string
	HitRate        float64 // gateway offload: 1 - gateway packets / host sent
	P99FirstPacket simtime.Duration
	P99FCT         simtime.Duration
	GatewayPackets int64
	HostSent       int64
}

// ContainerCrossover runs the headline host-vs-switch experiment: for
// every (density, reuse, fraction) cell of the container-overlay
// workload, measure every scheme's gateway offload and tail first-packet
// latency. base.Containers supplies the deployment spec defaults
// (density and reuse are overridden per cell); base.VMs is ignored —
// the population is density × servers.
//
// Points run through the bounded parallel sweep runner when
// base.SweepWorkers > 1. Every point is an independent simulation seeded
// only from its own Config, so the returned series is byte-identical —
// values and order — at any worker count.
func ContainerCrossover(base Config, densities []int, reuses, fractions []float64, schemes []string) ([]CrossoverPoint, error) {
	spec := containers.Spec{}
	if base.Containers != nil {
		spec = *base.Containers
	}
	type job struct {
		perHost  int
		reuse    float64
		fraction float64
		scheme   string
	}
	var jobs []job
	for _, d := range densities {
		for _, reuse := range reuses {
			for _, f := range fractions {
				for _, scheme := range schemes {
					jobs = append(jobs, job{d, reuse, f, scheme})
				}
			}
		}
	}
	out := make([]CrossoverPoint, len(jobs))
	err := RunIndexed(base.sweepWorkers(), len(jobs), func(i int) error {
		j := jobs[i]
		cfg := base
		cfg.Scheme = j.scheme
		cellSpec := spec
		cellSpec.PerHost = j.perHost
		cellSpec.Reuse = j.reuse
		cfg.Containers = &cellSpec
		cfg.CacheFraction = j.fraction
		r, err := Run(cfg)
		if err != nil {
			return err
		}
		out[i] = CrossoverPoint{
			PerHost:        j.perHost,
			Reuse:          j.reuse,
			CacheFraction:  j.fraction,
			Scheme:         j.scheme,
			HitRate:        r.HitRate,
			P99FirstPacket: r.Summary.P99FirstPacket,
			P99FCT:         r.Summary.P99FCT,
			GatewayPackets: r.GatewayPackets,
			HostSent:       r.HostSent,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
