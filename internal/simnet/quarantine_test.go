package simnet_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"switchv2p/internal/faults"
	"switchv2p/internal/harness"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/transport"
)

// quarantineConfigs are the two worlds every scheme is run in: a healthy
// one, and one whose run crosses every release point the engine has — a
// failed switch, a dark gateway, a lossy host link, and (see migrate)
// misdeliveries, follow-me re-forwarding and invalidations.
func quarantineConfigs(t *testing.T, scheme string) map[string]harness.Config {
	healthy := harness.Config{
		Topo:          topology.FT8(),
		VMs:           512,
		Scheme:        scheme,
		TraceName:     "hadoop",
		Load:          0.2,
		Duration:      200 * simtime.Microsecond,
		MaxFlows:      300,
		CacheFraction: 0.5,
		Seed:          3,
		Horizon:       simtime.Time(5 * simtime.Millisecond),
	}
	topo, err := topology.New(healthy.Topo)
	if err != nil {
		t.Fatal(err)
	}
	gw, host := topo.Gateways()[0], topo.Servers()[0]
	tor := topology.SwitchRef(topo.Hosts[host].ToR)
	us := func(n int) simtime.Time { return simtime.Time(simtime.Duration(n) * simtime.Microsecond) }
	faulty := healthy
	faulty.Faults = &faults.Config{
		Schedule: []faults.Event{
			{At: us(40), Kind: faults.SwitchFail, Switch: 1},
			{At: us(90), Kind: faults.SwitchRecover, Switch: 1},
			{At: us(30), Kind: faults.GatewayOutage, Gateway: gw},
			{At: us(120), Kind: faults.GatewayRecover, Gateway: gw},
			{At: us(50), Kind: faults.LossStart, A: topology.HostRef(host), B: tor, LossRate: 0.3},
			{At: us(100), Kind: faults.LossEnd, A: topology.HostRef(host), B: tor},
		},
		LossSeed: 7,
	}
	return map[string]harness.Config{"healthy": healthy, "migration+faults": faulty}
}

// migrate moves the destination VMs of the world's eight largest flows to
// a server in another pod, 60 µs into each flow: late enough that every
// scheme's host and switch caches hold the old location.
func migrate(w *harness.World) {
	recs := slices.Clone(w.Agent.Records)
	slices.SortStableFunc(recs, func(a, b *transport.FlowRecord) int { return b.Spec.Bytes - a.Spec.Bytes })
	servers := w.Topo.Servers()
	for i, rec := range recs[:8] {
		vip, to := rec.Spec.Dst, servers[len(servers)-1-i]
		w.Engine.AtBarrier(rec.Spec.Start.Add(60*simtime.Microsecond), func() {
			if from, ok := w.Net.HostOf(vip); ok && from != to {
				if err := w.Net.Migrate(vip, to); err != nil {
					panic(err)
				}
			}
		})
	}
}

// fingerprint is everything a run reports: the engine's books, the cache
// statistics and every flow's record.
func fingerprint(w *harness.World) string {
	r := w.Report()
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n%+v\n", w.Engine.C, r.Summary)
	if r.CoreStats != nil {
		fmt.Fprintf(&b, "%+v\n", *r.CoreStats)
	}
	for _, rec := range w.Agent.Records {
		fmt.Fprintf(&b, "%+v\n", *rec)
	}
	return b.String()
}

// TestNobodyReadsAReleasedPacket runs every scheme twice per world: once
// recycling packets, once with the pool in quarantine, where a released
// packet reads as poison for good. Whoever reads a packet after the engine
// released it — a Handler or Tap that kept the pointer, a scheme's delayed
// closure that captured p, the engine itself — reads a later packet in the
// first run and poison in the second, and the reports differ.
func TestNobodyReadsAReleasedPacket(t *testing.T) {
	for _, scheme := range harness.AllSchemes {
		for name, cfg := range quarantineConfigs(t, scheme) {
			t.Run(scheme+"/"+name, func(t *testing.T) {
				t.Parallel()
				run := func(quarantined bool) string {
					w, err := harness.Build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if cfg.Faults != nil {
						migrate(w)
					}
					if quarantined {
						w.Engine.QuarantinePackets()
					}
					if err := w.Run(w.Cfg.Horizon); err != nil {
						t.Fatal(err)
					}
					if c := &w.Engine.C; c.Delivered == 0 || (cfg.Faults != nil && (c.Misdeliveries == 0 || c.FaultDrops == 0)) {
						t.Fatalf("the run does not exercise what it is for: %+v", *c)
					}
					return fingerprint(w)
				}
				if recycled, quarantined := run(false), run(true); recycled != quarantined {
					t.Errorf("the run reports differently once released packets read as poison: somebody reads a packet it no longer owns\nrecycling:\n%.600s\nquarantined:\n%.600s", recycled, quarantined)
				}
			})
		}
	}
}
