package simnet_test

import (
	"runtime"
	"testing"

	"switchv2p/internal/eventq"
	"switchv2p/internal/harness"
	"switchv2p/internal/packet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/trace"
)

// TestPacketPathSteadyStateAllocFree runs, for every scheme, repeated
// exchanges between two VMs in different pods: a Data segment from the
// engine's pool that the scheme resolves and forwards hop by hop (gateway
// detour, cache hits, learning and whatever control packets it emits), its
// delivery, and the ACK the receiver takes from the pool and sends back.
// Once warm — the free list holds the exchange's packets and the scheme's
// tables hold the pair — an exchange allocates nothing. The controller
// scheme is left out: its periodic re-placement allocates by design.
//
// Each shard-safe scheme also runs on the sharded engine with one worker,
// which puts the cross-domain hops (post, deliverCross, crossEvent.Fire,
// getCrossEvent) on the path. A sharded engine has no packet pool, so
// there an exchange allocates exactly its two packets, Data and ACK.
func TestPacketPathSteadyStateAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: nobody else allocates meanwhile
	type row struct {
		name   string
		scheme string
		shards int
		budget uint64 // allocations per exchange
	}
	var rows []row
	for _, scheme := range harness.AllSchemes {
		if scheme == harness.SchemeController {
			continue
		}
		rows = append(rows, row{scheme, scheme, 0, 0})
		if harness.ShardSupported(scheme) {
			rows = append(rows, row{scheme + "-sharded", scheme, 1, 2})
		}
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			w, err := harness.Build(harness.Config{
				Topo:     topology.FT8(),
				VMs:      512,
				Scheme:   r.scheme,
				Workload: &trace.Workload{}, // no transport flows: the test sends
				Shards:   r.shards,
				Seed:     3,
			})
			if err != nil {
				t.Fatal(err)
			}
			e := w.Engine
			src := w.VIPs[0]
			srcHost, _ := w.Net.HostOf(src)
			dst := w.VIPs[1]
			for _, v := range w.VIPs {
				if h, _ := w.Net.HostOf(v); w.Topo.Hosts[h].Pod != w.Topo.Hosts[srcHost].Pod {
					dst = v
					break
				}
			}
			acked := 0
			e.Handler = func(host int32, p *packet.Packet) {
				if p.Kind == packet.Ack {
					acked++
					return
				}
				e.HostSend(host, e.Packets().NewAck(p.FlowID, p.Seq+1, dst, src, 0))
			}
			const warm, measured = 50, 500
			gap := simtime.Time(200 * simtime.Microsecond) // far apart: one exchange at a time, two gateway detours included
			var before, after runtime.MemStats
			// Every closure is made here, before the run: inside it only the
			// packet path can allocate. HostAtTimed puts them on the sender's
			// queue on either engine.
			for i := 0; i < warm+measured; i++ {
				at := simtime.Time(i+1) * gap
				if i == warm {
					e.HostAtTimed(srcHost, at-1, eventq.Event(func() { runtime.ReadMemStats(&before) }))
				}
				e.HostAtTimed(srcHost, at, eventq.Event(func() {
					e.HostSend(srcHost, e.Packets().NewData(7, i, 1000, src, dst, 0))
				}))
			}
			end := simtime.Time(warm+measured+1) * gap
			e.HostAtTimed(srcHost, end, eventq.Event(func() { runtime.ReadMemStats(&after) }))
			e.Run(end)
			if acked != warm+measured {
				t.Fatalf("%d of %d exchanges completed", acked, warm+measured)
			}
			// Whole allocations per exchange, as AllocsPerRun counts: the
			// runtime's own stray allocation (the race detector makes some)
			// rounds away.
			if allocs := after.Mallocs - before.Mallocs; allocs/measured > r.budget {
				t.Fatalf("%d steady-state Data/ACK exchanges allocated %d times (%.1f per exchange), want at most %d per exchange",
					measured, allocs, float64(allocs)/measured, r.budget)
			}
		})
	}
}
