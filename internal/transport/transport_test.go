package transport

import (
	"strings"
	"testing"

	"switchv2p/internal/baselines"
	"switchv2p/internal/core"
	"switchv2p/internal/netaddr"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/vnet"
)

type world struct {
	topo  *topology.Topology
	net   *vnet.Net
	e     *simnet.Engine
	agent *Agent
	vips  []netaddr.VIP
}

func newWorld(t testing.TB, scheme func(topo *topology.Topology) simnet.Scheme) *world {
	t.Helper()
	topo, err := topology.New(topology.FT8())
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.New(topo)
	vips := n.PlaceRoundRobin(256)
	e := simnet.New(topo, n, scheme(topo), simnet.DefaultConfig())
	a := New(e, DefaultConfig())
	return &world{topo: topo, net: n, e: e, agent: a, vips: vips}
}

func noCache(*topology.Topology) simnet.Scheme { return baselines.NewNoCache() }
func direct(*topology.Topology) simnet.Scheme  { return baselines.NewDirect() }
func switchV2P(topo *topology.Topology) simnet.Scheme {
	return core.New(topo, core.DefaultOptions(1024))
}

func TestTCPSingleSegmentFlow(t *testing.T) {
	w := newWorld(t, noCache)
	rec := w.agent.AddFlow(FlowSpec{ID: 1, Src: w.vips[0], Dst: w.vips[9], Proto: TCP, Bytes: 500})
	w.e.Run(simtime.Never)
	if !rec.Completed {
		t.Fatalf("flow not completed: %+v", rec)
	}
	if rec.PacketsSent != 1 || rec.PacketsGot != 1 {
		t.Fatalf("packets sent/got = %d/%d, want 1/1", rec.PacketsSent, rec.PacketsGot)
	}
	if rec.FCT != rec.FirstPacketLatency {
		t.Fatalf("single-segment FCT %v != first packet latency %v", rec.FCT, rec.FirstPacketLatency)
	}
	if rec.FCT < 40*simtime.Microsecond {
		t.Fatalf("FCT %v below gateway latency", rec.FCT)
	}
	if rec.Retransmits != 0 || rec.TimedOut {
		t.Fatalf("unexpected retransmits: %+v", rec)
	}
}

func TestTCPMultiSegmentFlow(t *testing.T) {
	w := newWorld(t, noCache)
	const bytes = 100_000
	rec := w.agent.AddFlow(FlowSpec{ID: 1, Src: w.vips[0], Dst: w.vips[9], Proto: TCP, Bytes: bytes})
	w.e.Run(simtime.Never)
	if !rec.Completed {
		t.Fatalf("flow not completed: %+v", rec)
	}
	wantSegs := int64((bytes + DefaultConfig().MSS - 1) / DefaultConfig().MSS)
	if rec.PacketsSent != wantSegs {
		t.Fatalf("sent %d segments, want %d (no loss expected)", rec.PacketsSent, wantSegs)
	}
	if rec.FCT <= rec.FirstPacketLatency {
		t.Fatalf("FCT %v must exceed first-packet latency %v", rec.FCT, rec.FirstPacketLatency)
	}
}

func TestTCPManyConcurrentFlows(t *testing.T) {
	w := newWorld(t, noCache)
	for i := 0; i < 50; i++ {
		w.agent.AddFlow(FlowSpec{
			ID:    uint64(i + 1),
			Src:   w.vips[i],
			Dst:   w.vips[100+i],
			Proto: TCP,
			Bytes: 20_000,
			Start: simtime.Time(i * 1000),
		})
	}
	w.e.Run(simtime.Never)
	s := w.agent.Summarize()
	if s.Completed != 50 {
		t.Fatalf("completed %d/50: %v", s.Completed, s)
	}
	if s.TimedOut != 0 {
		t.Fatalf("timeouts: %v", s)
	}
}

func TestTCPRecoversFromDrops(t *testing.T) {
	// Tiny switch buffers force drops; TCP must still complete all flows.
	topo, err := topology.New(func() topology.Config {
		c := topology.FT8()
		c.BufferBytes = 20_000
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.New(topo)
	vips := n.PlaceRoundRobin(256)
	e := simnet.New(topo, n, baselines.NewNoCache(), simnet.DefaultConfig())
	a := New(e, DefaultConfig())
	// Incast onto one receiver to force queue overflow.
	for i := 0; i < 8; i++ {
		a.AddFlow(FlowSpec{ID: uint64(i + 1), Src: vips[i], Dst: vips[200], Proto: TCP, Bytes: 200_000})
	}
	e.Run(simtime.Never)
	s := a.Summarize()
	if e.C.Drops == 0 {
		t.Skip("no drops produced; buffer not small enough")
	}
	if s.Completed != 8 {
		t.Fatalf("completed %d/8 with drops=%d: %v", s.Completed, e.C.Drops, s)
	}
	if s.Retransmits == 0 {
		t.Fatal("drops occurred but no retransmissions recorded")
	}
}

func TestUDPFlow(t *testing.T) {
	w := newWorld(t, noCache)
	rec := w.agent.AddFlow(FlowSpec{
		ID: 1, Src: w.vips[0], Dst: w.vips[9], Proto: UDP,
		Packets: 100, PacketPayload: 500, Interval: simtime.Microsecond,
	})
	w.e.Run(simtime.Never)
	if rec.PacketsSent != 100 || rec.PacketsGot != 100 {
		t.Fatalf("sent/got = %d/%d", rec.PacketsSent, rec.PacketsGot)
	}
	if !rec.Completed || !rec.FirstDelivered {
		t.Fatalf("record flags: %+v", rec)
	}
	// UDP sends with fixed spacing: completion takes at least 99 µs.
	if rec.FCT < 99*simtime.Microsecond {
		t.Fatalf("FCT = %v, want >= 99µs", rec.FCT)
	}
}

func TestFirstPacketLatencyImprovesWithSwitchV2P(t *testing.T) {
	// Two consecutive flows between the same pair: under SwitchV2P the
	// second flow's first packet avoids the gateway; under NoCache not.
	run := func(scheme func(topo *topology.Topology) simnet.Scheme) (first, second simtime.Duration) {
		w := newWorld(t, scheme)
		r1 := w.agent.AddFlow(FlowSpec{ID: 1, Src: w.vips[0], Dst: w.vips[9], Proto: TCP, Bytes: 5000})
		w.e.Run(simtime.Never)
		r2 := w.agent.AddFlow(FlowSpec{ID: 2, Src: w.vips[0], Dst: w.vips[9], Proto: TCP, Bytes: 5000,
			Start: w.e.Now().Add(simtime.Microsecond)})
		w.e.Run(simtime.Never)
		if !r1.Completed || !r2.Completed {
			t.Fatalf("flows incomplete under %T", scheme)
		}
		return r1.FirstPacketLatency, r2.FirstPacketLatency
	}
	_, ncSecond := run(noCache)
	_, svSecond := run(switchV2P)
	if svSecond >= ncSecond {
		t.Fatalf("SwitchV2P second-flow first-packet %v not better than NoCache %v", svSecond, ncSecond)
	}
	if svSecond > 20*simtime.Microsecond {
		t.Fatalf("SwitchV2P warm first-packet latency %v, want < 20µs (no gateway)", svSecond)
	}
}

func TestFCTOrderingAcrossSchemes(t *testing.T) {
	// Direct <= SwitchV2P(warm-ish) <= NoCache for repeated flows.
	run := func(scheme func(topo *topology.Topology) simnet.Scheme) simtime.Duration {
		w := newWorld(t, scheme)
		for i := 0; i < 10; i++ {
			w.agent.AddFlow(FlowSpec{
				ID: uint64(i + 1), Src: w.vips[0], Dst: w.vips[9], Proto: TCP, Bytes: 3000,
				Start: simtime.Time(i) * simtime.Time(200*simtime.Microsecond),
			})
		}
		w.e.Run(simtime.Never)
		return w.agent.Summarize().AvgFCT
	}
	d := run(direct)
	sv := run(switchV2P)
	nc := run(noCache)
	if !(d <= sv && sv < nc) {
		t.Fatalf("FCT ordering violated: direct=%v switchv2p=%v nocache=%v", d, sv, nc)
	}
}

func TestMigrationMidFlow(t *testing.T) {
	// A long TCP flow survives a mid-flow VM migration under SwitchV2P.
	w := newWorld(t, switchV2P)
	dst := w.vips[9]
	rec := w.agent.AddFlow(FlowSpec{ID: 1, Src: w.vips[0], Dst: dst, Proto: TCP, Bytes: 2_000_000})
	// Migrate mid-flow.
	newHost, _ := w.net.HostOf(w.vips[100])
	w.e.Q.At(simtime.Time(50*simtime.Microsecond), func() {
		if err := w.net.Migrate(dst, newHost); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
	w.e.Run(simtime.Never)
	if !rec.Completed {
		t.Fatalf("flow did not survive migration: %+v, counters %+v", rec, w.e.C)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Flows != 0 || s.AvgFCT != 0 || s.P99FCT != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

// TestSummaryCountsACompletedFlowOnce: a flow whose receiver has every
// byte while its sender gives up on the lost ACKs is completed, not also
// timed out (FuzzFaultSchedule found one behind a failed ToR).
func TestSummaryCountsACompletedFlowOnce(t *testing.T) {
	s := Summarize([]*FlowRecord{
		{Spec: FlowSpec{Proto: TCP}, Completed: true, TimedOut: true},
		{Spec: FlowSpec{Proto: TCP}, TimedOut: true},
		{Spec: FlowSpec{Proto: TCP}, Completed: true},
	})
	if s.Flows != 3 || s.Completed != 2 || s.TimedOut != 1 {
		t.Fatalf("flows %d, completed %d, timed out %d; want 3, 2, 1", s.Flows, s.Completed, s.TimedOut)
	}
}

func TestSummaryPercentiles(t *testing.T) {
	recs := make([]*FlowRecord, 100)
	for i := range recs {
		recs[i] = &FlowRecord{
			Spec:               FlowSpec{Proto: TCP},
			Completed:          true,
			FirstDelivered:     true,
			FCT:                simtime.Duration(i+1) * simtime.Microsecond,
			FirstPacketLatency: simtime.Duration(i+1) * simtime.Microsecond,
		}
	}
	s := Summarize(recs)
	if s.AvgFCT != 50500*simtime.Nanosecond {
		t.Fatalf("AvgFCT = %v", s.AvgFCT)
	}
	// Nearest-rank p99 of 1..100 µs is the 99th value.
	if s.P99FCT != 99*simtime.Microsecond {
		t.Fatalf("P99FCT = %v", s.P99FCT)
	}
	if s.P50FCT != 50*simtime.Microsecond || s.MaxFCT != 100*simtime.Microsecond {
		t.Fatalf("P50=%v Max=%v", s.P50FCT, s.MaxFCT)
	}
}

func TestBluebirdOverloadNoRTORunaway(t *testing.T) {
	// Regression: under a control-plane bottleneck (Bluebird with tiny
	// route caches), RTT samples of retransmitted segments must not feed
	// the RTO backoff (Karn's rule) — the simulation used to run away to
	// simulated years. The run must finish quickly in simulated time and
	// show Bluebird's characteristic FCT collapse.
	topo, err := topology.New(topology.FT8())
	if err != nil {
		t.Fatal(err)
	}
	n := vnet.New(topo)
	vips := n.PlaceRoundRobin(512)
	bb := baselines.NewBluebird(topo, 1, baselines.DefaultBluebirdParams())
	e := simnet.New(topo, n, bb, simnet.DefaultConfig())
	a := New(e, DefaultConfig())
	// Concentrate senders in one rack (servers of pod 1, rack 0) so a
	// single ToR's 20 Gbps DP->CP link bottlenecks every cache miss.
	var rackVMs []netaddr.VIP
	for _, v := range vips {
		if h, _ := n.HostOf(v); topo.Hosts[h].Pod == 1 && topo.Hosts[h].Rack == 0 {
			rackVMs = append(rackVMs, v)
		}
	}
	for i := 0; i < 120; i++ {
		a.AddFlow(FlowSpec{
			ID: uint64(i + 1), Src: rackVMs[i%len(rackVMs)], Dst: vips[256+i], Proto: TCP,
			Bytes: 300_000, Start: simtime.Time(i * 200),
		})
	}
	e.Run(simtime.Never)
	if now := e.Now(); now > simtime.Time(500*simtime.Millisecond) {
		t.Fatalf("simulation ran to %v: RTO runaway", now)
	}
	s := a.Summarize()
	if s.Retransmits == 0 {
		t.Fatal("expected CP-drop retransmissions")
	}
}

// TestAddFlowsMatchesAddFlow registers one mixed TCP/UDP flow list three
// ways — one AddFlow per flow, one AddFlows, and AddFlows in two batches
// (the second lands on an already-populated table) — and requires identical
// records in identical order after the run. The last two flows, one of each
// protocol, start from a VM that is placed only after registration, so their
// start events take the root-queue fallback.
func TestAddFlowsMatchesAddFlow(t *testing.T) {
	var specs []FlowSpec
	for i := 0; i < 42; i++ {
		f := FlowSpec{ID: uint64(i + 1), Start: simtime.Time(i) * 700}
		if i%4 == 3 {
			f.Proto, f.Packets, f.PacketPayload, f.Interval = UDP, 5+i, 400, simtime.Microsecond
		} else {
			f.Proto, f.Bytes = TCP, 800*(i+1)
		}
		specs = append(specs, f)
	}
	run := func(add func(a *Agent, specs []FlowSpec)) []*FlowRecord {
		w := newWorld(t, switchV2P)
		late := w.net.ReserveVIP()
		for i := range specs {
			specs[i].Src, specs[i].Dst = w.vips[i%17], w.vips[100+i%23]
			if i >= len(specs)-2 {
				specs[i].Src = late
			}
		}
		add(w.agent, specs)
		host, _ := w.net.HostOf(w.vips[3])
		if err := w.net.PlaceVM(late, host, 0); err != nil {
			t.Fatal(err)
		}
		w.e.Run(simtime.Never)
		return w.agent.Records
	}
	one := run(func(a *Agent, specs []FlowSpec) {
		for _, f := range specs {
			a.AddFlow(f)
		}
	})
	ways := map[string][]*FlowRecord{
		"one AddFlows": run(func(a *Agent, specs []FlowSpec) { a.AddFlows(specs) }),
		"two AddFlows": run(func(a *Agent, specs []FlowSpec) {
			a.AddFlows(specs[:25])
			a.AddFlows(specs[25:])
		}),
	}
	if len(one) != len(specs) {
		t.Fatalf("%d records by AddFlow, want %d", len(one), len(specs))
	}
	for i := range one {
		if !one[i].Completed {
			t.Fatalf("flow %d did not complete: %+v", i, *one[i])
		}
	}
	for way, batch := range ways {
		if len(batch) != len(specs) {
			t.Fatalf("%d records by %s, want %d", len(batch), way, len(specs))
		}
		for i := range one {
			if *one[i] != *batch[i] {
				t.Fatalf("flow %d differs:\nAddFlow  %+v\n%s %+v", i, *one[i], way, *batch[i])
			}
		}
	}
}

// TestDuplicateFlowIDPanics: two flows filed under one id would be handed
// each other's packets, so registration refuses the second, naming the id.
func TestDuplicateFlowIDPanics(t *testing.T) {
	w := newWorld(t, noCache)
	tcp := FlowSpec{ID: 7, Src: w.vips[0], Dst: w.vips[9], Proto: TCP, Bytes: 500}
	udp := FlowSpec{ID: 8, Src: w.vips[1], Dst: w.vips[9], Proto: UDP, Packets: 3, PacketPayload: 100}
	other := FlowSpec{ID: 9, Src: w.vips[2], Dst: w.vips[9], Proto: TCP, Bytes: 500}
	w.agent.AddFlows([]FlowSpec{tcp, udp})
	for name, tc := range map[string]struct {
		id  string
		add func()
	}{
		"AddFlow, TCP":         {"7", func() { w.agent.AddFlow(tcp) }},
		"AddFlow, UDP":         {"8", func() { w.agent.AddFlow(udp) }},
		"second AddFlows, TCP": {"7", func() { w.agent.AddFlows([]FlowSpec{other, tcp}) }},
		"second AddFlows, UDP": {"8", func() { w.agent.AddFlows([]FlowSpec{udp}) }},
		"across the protocols": {"8", func() { u := tcp; u.ID = 8; w.agent.AddFlow(u) }},
		"within one AddFlows":  {"21", func() { u := tcp; u.ID = 21; w.agent.AddFlows([]FlowSpec{u, u}) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := "duplicate flow id " + tc.id; !strings.Contains(msg, want) {
					t.Errorf("%s: panic %q, want one containing %q", name, msg, want)
				}
			}()
			tc.add()
		}()
	}
}

// TestFlowStartAndTimerScheduleWithoutAllocating: a flow is its own start,
// timer and datagram-pacing event, so registering a batch of flows allocates
// per batch (slab, table, queue growth), not per flow, re-arming the
// retransmission timer allocates nothing, and a UDP flow's datagrams come
// out of the engine's packet pool: the flow allocates as many packets as it
// ever has in flight, not one per datagram.
func TestFlowStartAndTimerScheduleWithoutAllocating(t *testing.T) {
	w := newWorld(t, noCache)
	specs := make([]FlowSpec, 1000)
	for i := range specs {
		specs[i] = FlowSpec{ID: uint64(i + 1), Src: w.vips[i%17], Dst: w.vips[100+i%23], Proto: TCP, Bytes: 500, Start: simtime.Time(i)}
	}
	perBatch := testing.AllocsPerRun(1, func() {
		New(w.e, DefaultConfig()).AddFlows(specs)
	})
	if perBatch >= float64(len(specs))/4 {
		t.Fatalf("AddFlows of %d flows allocates %v times: flow start is allocating per flow", len(specs), perBatch)
	}

	w = newWorld(t, noCache)
	w.agent.AddFlow(specs[0])
	w.e.Run(simtime.Never)
	s := w.agent.flows[specs[0].ID]
	if !s.done || s.timerActive {
		t.Fatalf("flow did not finish with its timer retired: done %v, timer active %v", s.done, s.timerActive)
	}
	rearm := testing.AllocsPerRun(100, func() {
		s.armRTO()
		w.e.Run(simtime.Never) // the timer finds the flow done and retires
	})
	if rearm != 0 {
		t.Fatalf("arming the retransmission timer allocates %v times, want 0", rearm)
	}

	const datagrams = 200
	id := specs[0].ID
	perFlow := testing.AllocsPerRun(5, func() {
		id++
		w.agent.AddFlow(FlowSpec{ID: id, Src: w.vips[0], Dst: w.vips[9], Proto: UDP,
			Packets: datagrams, PacketPayload: 500, Interval: simtime.Microsecond, Start: w.e.Now()})
		w.e.Run(simtime.Never)
	})
	// A datagram a microsecond and a ~50 µs path through the gateway: some
	// fifty datagrams are in flight at the high-water mark, each Run starts
	// with an empty free list, and rings, flow and record are a handful.
	if perFlow >= datagrams/2 {
		t.Fatalf("a %d-datagram UDP flow allocates %v times, want it bounded by the in-flight high-water mark and a handful per flow", datagrams, perFlow)
	}
}
