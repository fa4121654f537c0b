package transport

import (
	"testing"

	"switchv2p/internal/faults"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

// TestRTOGiveUpUnderSustainedLoss drives the retransmission state
// machine into its give-up branch: a 100%-loss window on the sender's
// access link that never closes means every transmission and every RTO
// retransmission dies, so the sender must back off, exhaust MaxRetries,
// and surrender the flow as TimedOut — it must not retry forever and
// keep the simulation alive.
func TestRTOGiveUpUnderSustainedLoss(t *testing.T) {
	w := newWorld(t, noCache)
	src, dst := w.vips[0], w.vips[9]
	host, ok := w.net.HostOf(src)
	if !ok {
		t.Fatal("src VIP not placed")
	}
	up := []faults.Event{{
		At:   0,
		Kind: faults.LossStart,
		A:    topology.HostRef(host), B: topology.SwitchRef(w.topo.Hosts[host].ToR),
		LossRate: 1,
	}}
	inj, err := faults.New(&faults.Config{Schedule: up}, w.topo)
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(w.e, &faults.Config{Schedule: up})

	rec := w.agent.AddFlow(FlowSpec{ID: 1, Src: src, Dst: dst, Proto: TCP, Bytes: 500})
	w.e.Run(simtime.Never)

	if err := inj.Err(); err != nil {
		t.Fatal(err)
	}
	if !rec.TimedOut {
		t.Fatalf("flow did not time out under sustained 100%% loss: %+v", rec)
	}
	if rec.Completed {
		t.Fatalf("flow marked completed and timed out: %+v", rec)
	}
	maxRetries := int64(DefaultConfig().MaxRetries)
	if rec.Retransmits < maxRetries {
		t.Fatalf("gave up after %d retransmits, want at least MaxRetries=%d", rec.Retransmits, maxRetries)
	}
	c := &w.e.C
	if c.LossDrops == 0 {
		t.Fatal("loss window dropped nothing")
	}
	if c.Delivered+c.Drops < c.HostSent {
		t.Fatalf("conservation violated: delivered %d + drops %d < sent %d",
			c.Delivered, c.Drops, c.HostSent)
	}
}

// TestFlowRecoversAfterLinkUp is the matching positive case: the
// sender's access link goes down at t=0 and comes back at 1ms — well
// inside the retry budget — so the RTO machinery must carry the flow
// across the outage and complete it once the link heals.
func TestFlowRecoversAfterLinkUp(t *testing.T) {
	w := newWorld(t, noCache)
	src, dst := w.vips[0], w.vips[9]
	host, ok := w.net.HostOf(src)
	if !ok {
		t.Fatal("src VIP not placed")
	}
	a, b := topology.HostRef(host), topology.SwitchRef(w.topo.Hosts[host].ToR)
	cfg := &faults.Config{Schedule: []faults.Event{
		{At: 0, Kind: faults.LinkDown, A: a, B: b},
		{At: simtime.Time(0).Add(simtime.Millisecond), Kind: faults.LinkUp, A: a, B: b},
	}}
	inj, err := faults.New(cfg, w.topo)
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(w.e, cfg)

	rec := w.agent.AddFlow(FlowSpec{ID: 1, Src: src, Dst: dst, Proto: TCP, Bytes: 500})
	w.e.Run(simtime.Never)

	if err := inj.Err(); err != nil {
		t.Fatal(err)
	}
	if !rec.Completed || rec.TimedOut {
		t.Fatalf("flow did not recover after LinkUp: %+v", rec)
	}
	if rec.Retransmits == 0 {
		t.Fatal("flow completed without retransmits; the outage did nothing")
	}
	if rec.FCT < simtime.Millisecond {
		t.Fatalf("FCT %v shorter than the outage", rec.FCT)
	}
	if w.e.C.FaultDrops == 0 {
		t.Fatal("downed link dropped nothing")
	}
}
