// Package transport implements the host transport layer the evaluation
// traffic runs over: a simplified TCP (slow start, AIMD congestion
// avoidance, duplicate-ACK fast retransmit with a large reordering
// tolerance in the spirit of RACK-TLP, and an RTO fallback) for flow
// completion time measurements, and UDP constant-rate/burst flows for
// the Microbursts, Video and incast workloads.
//
// The Agent registers itself as the engine's delivery handler and owns
// every flow endpoint in the simulation.
package transport

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
)

// Proto selects the transport protocol of a flow.
type Proto uint8

// Protocols.
const (
	TCP Proto = iota
	UDP
)

// String returns the protocol name.
func (p Proto) String() string {
	if p == TCP {
		return "tcp"
	}
	return "udp"
}

// FlowSpec describes one flow to simulate.
type FlowSpec struct {
	ID    uint64
	Src   netaddr.VIP
	Dst   netaddr.VIP
	Proto Proto
	Start simtime.Time

	// TCP: Bytes is the flow size; it is split into MSS-sized segments.
	Bytes int

	// UDP: Packets payloads of PacketPayload bytes, sent every Interval.
	Packets       int
	PacketPayload int
	Interval      simtime.Duration
}

// FlowRecord is the measured outcome of a flow.
type FlowRecord struct {
	Spec FlowSpec

	// FirstPacketLatency is the latency of the flow's first data packet:
	// delivery time minus flow start.
	FirstPacketLatency simtime.Duration
	// FCT is the flow completion time: last byte delivered at the
	// receiver minus flow start. TCP only.
	FCT simtime.Duration

	Completed      bool
	FirstDelivered bool
	PacketsSent    int64
	PacketsGot     int64
	Retransmits    int64
	TimedOut       bool // gave up after MaxRetries RTOs
}

// Config tunes the transport.
type Config struct {
	MSS         int              // max segment payload bytes
	InitCwnd    float64          // initial congestion window, segments
	DupThresh   int              // dup-ACKs before fast retransmit (reordering tolerance)
	MinRTO      simtime.Duration // lower bound on the retransmission timer
	MaxRTO      simtime.Duration // ceiling on the (backed-off) retransmission timer
	MaxRetries  int              // consecutive RTOs before giving up
	ReceiverWin float64          // cap on cwnd, segments
}

// DefaultConfig returns a configuration suited to the simulated fabric:
// a large reordering tolerance (the paper notes Linux tolerates up to
// 300 reordered packets; SwitchV2P relies on this).
func DefaultConfig() Config {
	return Config{
		MSS:         packet.MaxPayload,
		InitCwnd:    10,
		DupThresh:   100,
		MinRTO:      200 * simtime.Microsecond,
		MaxRTO:      5 * simtime.Millisecond,
		MaxRetries:  12,
		ReceiverWin: 256,
	}
}

// Agent owns all flow endpoints of a simulation run.
type Agent struct {
	e   *simnet.Engine
	cfg Config

	// flows finds a flow by id. A map, not a slice: the in-tree generators
	// number flows 1..N, but trace.ReadWorkload admits any distinct ids.
	flows   map[uint64]*flow
	Records []*FlowRecord

	// Running totals over every flow, read through Retransmits and RTOs.
	// Atomic: on the sharded engine several workers run flows at once.
	retransmits atomic.Int64 // retransmitted segments
	rtos        atomic.Int64 // retransmission-timer expirations
}

// Retransmits returns the number of segments retransmitted so far.
func (a *Agent) Retransmits() int64 { return a.retransmits.Load() }

// RTOs returns the number of retransmission-timer expirations so far.
func (a *Agent) RTOs() int64 { return a.rtos.Load() }

// New creates an agent and installs it as the engine's delivery handler.
func New(e *simnet.Engine, cfg Config) *Agent {
	a := &Agent{e: e, cfg: cfg}
	e.Handler = a.deliver
	return a
}

// AddFlow registers a flow and schedules its start.
func (a *Agent) AddFlow(spec FlowSpec) *FlowRecord {
	a.AddFlows([]FlowSpec{spec})
	return a.Records[len(a.Records)-1]
}

// AddFlows registers a flow list, in order, and schedules each flow's
// start. The flows of one call are carved from one slab and their records
// appended to Records. An id that is already registered is the caller's
// bug: two flows filed under one id would be handed each other's packets.
func (a *Agent) AddFlows(specs []FlowSpec) {
	if len(a.flows) == 0 {
		// A map cannot be grown in place: size it while it is still empty.
		a.flows = make(map[uint64]*flow, len(specs))
	}
	a.Records = slices.Grow(a.Records, len(specs))
	slab := make([]flow, len(specs))
	for i := range specs {
		f, spec := &slab[i], &specs[i]
		if a.flows[spec.ID] != nil {
			panic(fmt.Sprintf("transport: duplicate flow id %d", spec.ID))
		}
		f.a, f.rec.Spec = a, *spec
		switch spec.Proto {
		case TCP:
			mss := a.cfg.MSS
			f.segs = max((spec.Bytes+mss-1)/mss, 1)
			f.lastSize = max(spec.Bytes-(f.segs-1)*mss, 1)
		case UDP:
		default:
			panic(fmt.Sprintf("transport: unknown proto %d", spec.Proto))
		}
		a.flows[spec.ID] = f
		a.Records = append(a.Records, &f.rec)
		if host, ok := a.hostOf(spec.Src); ok {
			// Schedule on the queue that owns the source host (the root
			// queue on a serial engine, the host's domain queue when
			// sharded).
			f.host = host
			a.e.HostAtTimed(host, spec.Start, f)
		} else {
			// Source VM not placed yet (churn scenarios place VMs
			// mid-run): root-queue fallback, serial engine only.
			f.host = -1
			a.e.Q.AtTimed(spec.Start, f)
		}
	}
}

// hostOf returns the current host of a VM; the bool is false if unknown.
func (a *Agent) hostOf(vip netaddr.VIP) (int32, bool) {
	return a.e.Net.HostOf(vip)
}

// deliver is the engine's Handler: dispatch to the flow endpoint.
func (a *Agent) deliver(host int32, p *packet.Packet) {
	f := a.flows[p.FlowID]
	if f == nil {
		return
	}
	switch p.Kind {
	case packet.Data:
		f.onData(host, p)
	case packet.Ack:
		f.onAck(host, p.AckNo)
	}
}

// flow is one registered flow: its measured record, what registration
// fixes, then the sender's state and the receiver's state as two
// contiguous groups — on the sharded engine the source host's worker
// writes the first and the destination host's worker the second.
type flow struct {
	rec FlowRecord
	a   *Agent

	segs     int // TCP: total segments
	lastSize int // TCP: payload of the final segment

	// --- sender ---

	// host is the flow's source host, resolved at registration (-1 until
	// the flow starts when the VM was not yet placed — churn scenarios,
	// serial engine only). A TCP sender's timer lives on this host's queue
	// so that, sharded, it stays inside the host's domain.
	host int32

	una      int     // lowest unacknowledged seq
	nextSeq  int     // next never-sent seq; UDP: next datagram
	cwnd     float64 // congestion window, segments
	ssthresh float64
	dupAcks  int

	srtt   float64 // smoothed RTT, ns
	rttvar float64
	// sent holds each segment's send time, for RTT samples; nil until the
	// flow starts. A retransmission zeroes its segment's entry and a zero
	// is never sampled (Karn's rule).
	sent []simtime.Time

	// Single lazily re-armed retransmission timer: deadline moves on
	// every ACK, but only one event is ever pending. The pending event
	// re-schedules itself if it fires before the current deadline.
	deadline    simtime.Time
	retries     int
	timerActive bool
	done        bool

	// --- receiver (TCP) ---

	got       []bool // nil until the first segment arrives
	cum       int    // next expected seq
	remaining int
}

// Fire runs the flow's one pending event. A flow never has two — its
// start, then the retransmission timer (TCP) or the next datagram (UDP) —
// so the flow is its own event: scheduling it allocates nothing, where a
// closure or a method value would cost an allocation per call.
func (f *flow) Fire() {
	if f.timerActive {
		if !f.done && f.a.e.HostNow(f.host) < f.deadline {
			// The deadline moved (an ACK arrived since): chase it with one
			// re-scheduled event instead of one event per ACK.
			f.a.e.HostAtTimed(f.host, f.deadline, f)
			return
		}
		f.timerActive = false
		if f.done {
			return
		}
	}
	f.send()
}

// send is the flow's turn to transmit on its own clock (ACK-clocked
// segments go out through onAck): a UDP flow's next datagram, a TCP
// flow's first window, or the retransmission its expired timer asks for.
func (f *flow) send() {
	switch {
	case f.rec.Spec.Proto == UDP:
		f.udpSend()
	case f.sent == nil:
		f.start()
	default:
		f.onRTO()
	}
}

// udpSend emits the flow's next datagram and schedules the one after.
func (f *flow) udpSend() {
	spec, i := &f.rec.Spec, f.nextSeq
	if i >= spec.Packets {
		return
	}
	host, ok := f.a.hostOf(spec.Src)
	if !ok {
		return
	}
	p := f.a.e.Packets().NewData(spec.ID, i, spec.PacketPayload, spec.Src, spec.Dst, 0)
	p.FirstSent = i == 0
	p.Fin = i == spec.Packets-1
	f.rec.PacketsSent++
	f.a.e.HostSend(host, p)
	f.nextSeq++
	if f.nextSeq < spec.Packets {
		f.a.e.HostAtTimed(host, f.a.e.HostNow(host).Add(spec.Interval), f)
	}
}

// --- TCP sender ---

func (f *flow) start() {
	if f.host < 0 {
		if host, ok := f.a.hostOf(f.rec.Spec.Src); ok {
			f.host = host
		}
	}
	f.cwnd = f.a.cfg.InitCwnd
	f.ssthresh = math.Inf(1)
	f.sent = make([]simtime.Time, f.segs)
	f.sendAvailable()
	f.armRTO()
}

func (f *flow) payloadOf(seq int) int {
	if seq == f.segs-1 {
		return f.lastSize
	}
	return f.a.cfg.MSS
}

// sendAvailable transmits new segments while the window allows.
func (f *flow) sendAvailable() {
	for !f.done && f.nextSeq < f.segs && float64(f.nextSeq-f.una) < math.Min(f.cwnd, f.a.cfg.ReceiverWin) {
		f.transmit(f.nextSeq, false)
		f.nextSeq++
	}
}

func (f *flow) transmit(seq int, retx bool) {
	spec := &f.rec.Spec
	host, ok := f.a.hostOf(spec.Src)
	if !ok {
		return
	}
	p := f.a.e.Packets().NewData(spec.ID, seq, f.payloadOf(seq), spec.Src, spec.Dst, 0)
	p.FirstSent = seq == 0 && !retx
	p.Fin = seq == f.segs-1
	p.Retx = retx
	f.rec.PacketsSent++
	if retx {
		f.sent[seq] = 0
		f.rec.Retransmits++
		f.a.retransmits.Add(1)
	} else {
		f.sent[seq] = f.a.e.HostNow(host)
	}
	f.a.e.HostSend(host, p)
}

func (f *flow) onAck(host int32, ackNo int) {
	if f.done {
		return
	}
	if ackNo > f.una {
		// New data acknowledged.
		acked := ackNo - f.una
		// Karn's rule: never sample RTT from a retransmitted segment —
		// the measurement is ambiguous and, fed into the backoff, can
		// run away under persistent congestion.
		if t := f.sent[ackNo-1]; t > 0 {
			f.rttSample(float64(f.a.e.HostNow(host).Sub(t)))
		}
		f.una = ackNo
		f.dupAcks = 0
		f.retries = 0
		for i := 0; i < acked; i++ {
			if f.cwnd < f.ssthresh {
				f.cwnd++ // slow start
			} else {
				f.cwnd += 1 / f.cwnd // congestion avoidance
			}
		}
		if f.una >= f.segs {
			f.done = true
			return
		}
		f.armRTO()
		f.sendAvailable()
		return
	}
	// Duplicate ACK.
	f.dupAcks++
	if f.dupAcks == f.a.cfg.DupThresh {
		f.dupAcks = 0
		f.ssthresh = math.Max(f.cwnd/2, 2)
		f.cwnd = f.ssthresh
		f.transmit(f.una, true)
		f.armRTO()
	}
}

func (f *flow) rttSample(rtt float64) {
	if f.srtt == 0 {
		f.srtt = rtt
		f.rttvar = rtt / 2
		return
	}
	diff := math.Abs(f.srtt - rtt)
	f.rttvar = 0.75*f.rttvar + 0.25*diff
	f.srtt = 0.875*f.srtt + 0.125*rtt
}

func (f *flow) rto() simtime.Duration {
	rto := simtime.Duration(f.srtt + 4*f.rttvar)
	if rto < f.a.cfg.MinRTO {
		rto = f.a.cfg.MinRTO
	}
	rto *= simtime.Duration(1 << min(f.retries, 6)) // exponential backoff
	if ceiling := f.a.cfg.MaxRTO; ceiling > 0 && rto > ceiling {
		rto = ceiling
	}
	return rto
}

func (f *flow) armRTO() {
	f.deadline = f.a.e.HostNow(f.host).Add(f.rto())
	if f.timerActive {
		return // the pending event will chase the new deadline
	}
	f.timerActive = true
	f.a.e.HostAtTimed(f.host, f.deadline, f)
}

// onRTO answers an expired retransmission timer.
func (f *flow) onRTO() {
	f.a.rtos.Add(1)
	f.retries++
	if f.retries > f.a.cfg.MaxRetries {
		f.done = true
		f.rec.TimedOut = true
		return
	}
	f.ssthresh = math.Max(f.cwnd/2, 2)
	f.cwnd = f.a.cfg.InitCwnd
	f.dupAcks = 0
	f.transmit(f.una, true)
	f.armRTO()
}

// --- receiving ---

// onData counts an arriving data packet; a TCP flow also files the
// segment and acknowledges it.
func (f *flow) onData(host int32, p *packet.Packet) {
	rec := &f.rec
	if !rec.FirstDelivered {
		rec.FirstDelivered = true
		rec.FirstPacketLatency = f.a.e.HostNow(host).Sub(rec.Spec.Start)
	}
	rec.PacketsGot++
	if rec.Spec.Proto == UDP {
		if rec.PacketsGot == int64(rec.Spec.Packets) {
			f.complete(host)
		}
		return
	}
	if f.got == nil {
		f.got = make([]bool, f.segs)
		f.remaining = f.segs
	}
	if p.Seq < len(f.got) && !f.got[p.Seq] {
		f.got[p.Seq] = true
		f.remaining--
		for f.cum < len(f.got) && f.got[f.cum] {
			f.cum++
		}
		if f.remaining == 0 {
			f.complete(host)
		}
	}
	// Acknowledge (cumulative) — the ACK resolves like any packet.
	host, ok := f.a.hostOf(rec.Spec.Dst)
	if !ok {
		return
	}
	f.a.e.HostSend(host, f.a.e.Packets().NewAck(p.FlowID, f.cum, rec.Spec.Dst, rec.Spec.Src, 0))
}

// complete records the arrival of the flow's last outstanding packet.
func (f *flow) complete(host int32) {
	f.rec.Completed = true
	f.rec.FCT = f.a.e.HostNow(host).Sub(f.rec.Spec.Start)
}
