package harness

import (
	"fmt"

	"switchv2p/internal/core"
	"switchv2p/internal/telemetry"
)

// attachTelemetry builds the run's collector and wires every probe and
// reader: engine profiling hooks, per-switch queue and cache series,
// gateway load series, protocol and transport packet rates, and the
// counters and gauges read at export. All of them are pure observations
// of state the simulator keeps anyway — attaching telemetry never
// changes a simulation result.
func (w *World) attachTelemetry(opts telemetry.Options) {
	tel := telemetry.New(opts)
	w.Telem = tel
	e := w.Engine
	e.Prof = &tel.Profile

	tel.AddCounter("transport.retransmits", w.Agent.Retransmits)
	tel.AddCounter("transport.rtos", w.Agent.RTOs)
	tel.AddGauge("net.switch_buffer_bytes", e.BufferGauge)

	if opts.ProfileOnly {
		return
	}
	iv := tel.Interval
	c := &e.C

	// Network-wide series.
	tel.AddProbe("net.inflight_pkts", func() float64 { return float64(e.InFlightPackets()) })
	tel.AddProbe("net.sent_per_sec", telemetry.RateProbe(iv, func() int64 { return c.HostSent }))
	tel.AddProbe("net.drops_per_sec", telemetry.RateProbe(iv, func() int64 { return c.Drops }))
	tel.AddProbe("net.fault_drops_per_sec", telemetry.RateProbe(iv, func() int64 { return c.FaultDrops }))
	tel.AddProbe("proto.learning_per_sec", telemetry.RateProbe(iv, func() int64 { return c.LearningPkts }))
	tel.AddProbe("proto.invalidation_per_sec", telemetry.RateProbe(iv, func() int64 { return c.InvalidationPkts }))
	tel.AddProbe("transport.retx_per_sec", telemetry.RateProbe(iv, w.Agent.Retransmits))
	tel.AddProbe("transport.rto_per_sec", telemetry.RateProbe(iv, w.Agent.RTOs))

	// Gateway load: aggregate plus one series per active gateway.
	tel.AddProbe("gateway.pkts_per_sec", telemetry.RateProbe(iv, func() int64 { return c.GatewayPackets }))
	tel.AddProbe("gateway.bytes_per_sec", telemetry.RateProbe(iv, func() int64 { return c.GatewayBytes }))
	for _, g := range e.Gateways() {
		tel.AddProbe(fmt.Sprintf("gw%d.pkts_per_sec", g),
			telemetry.RateProbe(iv, func() int64 { return c.GatewayPktByHost[g] }))
		tel.AddProbe(fmt.Sprintf("gw%d.bytes_per_sec", g),
			telemetry.RateProbe(iv, func() int64 { return c.GatewayByteByHost[g] }))
	}

	// Per-switch queue series (shared-buffer depth and overflow drops).
	for i := range w.Topo.Switches {
		sw := int32(i)
		tel.AddProbe(fmt.Sprintf("sw%d.queue_bytes", i),
			func() float64 { return float64(e.BufferUsed(sw)) })
		tel.AddProbe(fmt.Sprintf("sw%d.drops_per_sec", i),
			telemetry.RateProbe(iv, func() int64 { return c.SwitchDrops[sw] }))
	}

	// Cache series, when the scheme caches in the network. A scheme with
	// core stats embeds *core.Scheme, whose per-switch Cache this reads.
	if st := w.CoreStats(); st != nil {
		cs := w.Scheme.(interface{ Cache(int32) *core.Cache })
		layers := []struct {
			name string
			l    int
		}{{"tor", core.LayerToR}, {"spine", core.LayerSpine}, {"core", core.LayerCore}}
		tel.AddProbe("cache.hitrate", telemetry.RatioProbe(
			func() int64 { return st.Hits }, func() int64 { return st.Lookups }))
		for _, ly := range layers {
			tel.AddProbe("cache."+ly.name+".hitrate", telemetry.RatioProbe(
				func() int64 { return st.HitsByLayer[ly.l] },
				func() int64 { return st.LookupsByLayer[ly.l] }))
			tel.AddProbe("cache."+ly.name+".evictions_per_sec", telemetry.RateProbe(iv,
				func() int64 { return st.EvictionsByLayer[ly.l] }))
		}
		tel.AddProbe("cache.spill_inserted_per_sec", telemetry.RateProbe(iv,
			func() int64 { return st.SpillInserted }))
		tel.AddProbe("cache.promote_inserted_per_sec", telemetry.RateProbe(iv,
			func() int64 { return st.PromoteInserted }))

		capacity := int64(0)
		for i := range w.Topo.Switches {
			cache := cs.Cache(int32(i))
			capacity += int64(cache.Len())
			if cache.Len() == 0 {
				continue // non-caching switch: no per-switch series
			}
			tel.AddProbe(fmt.Sprintf("sw%d.cache_used", i),
				func() float64 { return float64(cache.Used()) })
			tel.AddProbe(fmt.Sprintf("sw%d.cache_hitrate", i), telemetry.RatioProbe(
				func() int64 { return cache.Hits }, func() int64 { return cache.Lookups }))
		}
		tel.AddGauge("cache.capacity_entries", func() (int64, int64) { return capacity, capacity })
	}

	if e.Sharded() {
		// The sharded root queue is frozen; the engine drives the sampler
		// at barrier-aligned instants instead of the collector scheduling
		// its own queue events.
		if sampleIv, ok := tel.BarrierSampling(); ok {
			e.SetBarrierSampler(sampleIv, tel.TickAt)
		}
	} else {
		tel.Attach(e.Q)
	}
}
