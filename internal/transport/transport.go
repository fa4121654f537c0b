// Package transport implements the host transport layer the evaluation
// traffic runs over: a simplified TCP (slow start, AIMD congestion
// avoidance, duplicate-ACK fast retransmit with a large reordering
// tolerance in the spirit of RACK-TLP, and an RTO fallback) for flow
// completion time measurements, and UDP constant-rate/burst senders for
// the Microbursts, Video and incast workloads.
//
// The Agent registers itself as the engine's delivery handler and owns
// every flow endpoint in the simulation.
package transport

import (
	"fmt"
	"math"
	"slices"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/packet"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/telemetry"
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

	senders   map[uint64]*tcpSender
	receivers map[uint64]*tcpReceiver
	udp       map[uint64]*FlowRecord
	Records   []*FlowRecord

	// Telemetry handles, attached by the harness when telemetry is
	// enabled. Nil handles are no-ops (see internal/telemetry), so the
	// hot paths below increment unconditionally at zero cost when
	// telemetry is off.
	RetxCounter *telemetry.Counter // retransmitted segments
	RTOCounter  *telemetry.Counter // retransmission-timer expirations
}

// New creates an agent and installs it as the engine's delivery handler.
func New(e *simnet.Engine, cfg Config) *Agent {
	a := &Agent{
		e:         e,
		cfg:       cfg,
		senders:   make(map[uint64]*tcpSender),
		receivers: make(map[uint64]*tcpReceiver),
		udp:       make(map[uint64]*FlowRecord),
	}
	e.Handler = a.deliver
	return a
}

// AddFlow registers a flow and schedules its start.
func (a *Agent) AddFlow(spec FlowSpec) *FlowRecord {
	rec := &FlowRecord{Spec: spec}
	if spec.Proto == TCP {
		a.register(rec, &tcpSender{}, &tcpReceiver{})
	} else {
		a.register(rec, nil, nil)
	}
	return rec
}

// AddFlows registers a whole flow list, in order, exactly as one AddFlow
// per flow would — but sizes the endpoint tables once and carves the
// records and TCP endpoints from three slabs instead of allocating three
// small objects per flow. The records are appended to Records.
func (a *Agent) AddFlows(specs []FlowSpec) {
	tcp := 0
	for i := range specs {
		if specs[i].Proto == TCP {
			tcp++
		}
	}
	// A map cannot be grown in place: presize each while it is still empty.
	if tcp > 0 && len(a.senders) == 0 {
		a.senders = make(map[uint64]*tcpSender, tcp)
		a.receivers = make(map[uint64]*tcpReceiver, tcp)
	}
	if udp := len(specs) - tcp; udp > 0 && len(a.udp) == 0 {
		a.udp = make(map[uint64]*FlowRecord, udp)
	}
	a.Records = slices.Grow(a.Records, len(specs))
	recs := make([]FlowRecord, len(specs))
	senders := make([]tcpSender, tcp)
	receivers := make([]tcpReceiver, tcp)
	tcp = 0
	for i := range specs {
		recs[i].Spec = specs[i]
		if specs[i].Proto == TCP {
			a.register(&recs[i], &senders[tcp], &receivers[tcp])
			tcp++
		} else {
			a.register(&recs[i], nil, nil)
		}
	}
}

// register files one flow's record and, for TCP, its two endpoints (the
// caller supplies their storage), and schedules the flow's start.
func (a *Agent) register(rec *FlowRecord, s *tcpSender, r *tcpReceiver) {
	spec := &rec.Spec
	a.Records = append(a.Records, rec)
	switch spec.Proto {
	case TCP:
		*s = tcpSender{a: a, rec: rec, host: -1}
		*r = tcpReceiver{a: a, rec: rec}
		a.senders[spec.ID] = s
		a.receivers[spec.ID] = r
		if host, ok := a.hostOf(spec.Src); ok {
			// Schedule on the queue that owns the source host (the root
			// queue on a serial engine, the host's domain queue when
			// sharded).
			s.host = host
			a.e.HostAtTimed(host, spec.Start, (*senderStart)(s))
		} else {
			// Source VM not placed yet (churn scenarios place VMs
			// mid-run): root-queue fallback, serial engine only.
			a.e.Q.AtTimed(spec.Start, (*senderStart)(s))
		}
	case UDP:
		a.udp[spec.ID] = rec
		if host, ok := a.hostOf(spec.Src); ok {
			a.e.HostAt(host, spec.Start, func() { a.udpSend(rec, 0) })
		} else {
			a.e.Q.At(spec.Start, func() { a.udpSend(rec, 0) })
		}
	default:
		panic(fmt.Sprintf("transport: unknown proto %d", spec.Proto))
	}
}

// hostOf returns the current host of a VM; the bool is false if unknown.
func (a *Agent) hostOf(vip netaddr.VIP) (int32, bool) {
	return a.e.Net.HostOf(vip)
}

// deliver is the engine's Handler: dispatch to the flow endpoint.
func (a *Agent) deliver(host int32, p *packet.Packet) {
	switch p.Kind {
	case packet.Data:
		if r := a.receivers[p.FlowID]; r != nil {
			r.onData(host, p)
			return
		}
		if rec := a.udp[p.FlowID]; rec != nil {
			rec.PacketsGot++
			if !rec.FirstDelivered {
				rec.FirstDelivered = true
				rec.FirstPacketLatency = a.e.HostNow(host).Sub(rec.Spec.Start)
			}
			if rec.PacketsGot == int64(rec.Spec.Packets) {
				rec.Completed = true
				rec.FCT = a.e.HostNow(host).Sub(rec.Spec.Start)
			}
		}
	case packet.Ack:
		if s := a.senders[p.FlowID]; s != nil {
			s.onAck(host, p.AckNo)
		}
	}
}

// udpSend emits UDP packet i of a flow and schedules the next.
func (a *Agent) udpSend(rec *FlowRecord, i int) {
	if i >= rec.Spec.Packets {
		return
	}
	host, ok := a.hostOf(rec.Spec.Src)
	if !ok {
		return
	}
	p := packet.NewData(rec.Spec.ID, i, rec.Spec.PacketPayload, rec.Spec.Src, rec.Spec.Dst, 0)
	p.FirstSent = i == 0
	if i == rec.Spec.Packets-1 {
		p.Fin = true
	}
	rec.PacketsSent++
	a.e.HostSend(host, p)
	if i+1 < rec.Spec.Packets {
		a.e.HostAfter(host, rec.Spec.Interval, func() { a.udpSend(rec, i+1) })
	}
}

// --- TCP sender ---

type tcpSender struct {
	a   *Agent
	rec *FlowRecord

	// host is the flow's source host, resolved at AddFlow (-1 when the
	// VM was not yet placed — churn scenarios, serial engine only). The
	// sender's timers live on this host's queue so that, sharded, they
	// stay inside the host's domain.
	host int32

	segs     int // total segments
	lastSize int // payload of the final segment

	una      int     // lowest unacknowledged seq
	nextSeq  int     // next never-sent seq
	cwnd     float64 // congestion window, segments
	ssthresh float64
	dupAcks  int

	srtt   float64 // smoothed RTT, ns
	rttvar float64
	sent   []simtime.Time // send time per segment (for RTT samples)
	retxed []bool         // segments ever retransmitted (Karn's rule)

	// Single lazily re-armed retransmission timer: deadline moves on
	// every ACK, but only one event is ever pending. The pending event
	// re-schedules itself if it fires before the current deadline.
	deadline    simtime.Time
	timerActive bool
	retries     int
	done        bool
}

// A sender is its own event, under one method set per scheduled action:
// scheduling it allocates nothing, where a method value would cost a
// closure per call. eventq.Queue.Step dispatches these like any typed
// event, so the hot-path check follows it in here; both are marked as
// roots of their own, and what they allocate — once per flow, once per
// expired timer, not per hop — is waived where it is called.
type (
	senderStart tcpSender // the flow's start
	senderTimer tcpSender // the retransmission timer
)

// Fire starts the flow.
//
//v2plint:hotpath
func (ev *senderStart) Fire() {
	//v2plint:allow hotpath once per flow: start makes the flow's per-segment arrays and sends its first window, one packet allocation per send
	(*tcpSender)(ev).start()
}

// Fire runs the retransmission timer.
//
//v2plint:hotpath
func (ev *senderTimer) Fire() {
	//v2plint:allow hotpath an expired timer retransmits, one packet allocation like every send; a timer that is early or stale allocates nothing
	(*tcpSender)(ev).onTimer()
}

func (s *tcpSender) start() {
	if s.host < 0 {
		if host, ok := s.a.hostOf(s.rec.Spec.Src); ok {
			s.host = host
		}
	}
	spec := s.rec.Spec
	mss := s.a.cfg.MSS
	s.segs = (spec.Bytes + mss - 1) / mss
	if s.segs == 0 {
		s.segs = 1
	}
	s.lastSize = spec.Bytes - (s.segs-1)*mss
	if s.lastSize <= 0 {
		s.lastSize = 1
	}
	s.cwnd = s.a.cfg.InitCwnd
	s.ssthresh = math.Inf(1)
	s.sent = make([]simtime.Time, s.segs)
	s.retxed = make([]bool, s.segs)
	s.sendAvailable()
	s.armRTO()
}

func (s *tcpSender) payloadOf(seq int) int {
	if seq == s.segs-1 {
		return s.lastSize
	}
	return s.a.cfg.MSS
}

// sendAvailable transmits new segments while the window allows.
func (s *tcpSender) sendAvailable() {
	for !s.done && s.nextSeq < s.segs && float64(s.nextSeq-s.una) < math.Min(s.cwnd, s.a.cfg.ReceiverWin) {
		s.transmit(s.nextSeq, false)
		s.nextSeq++
	}
}

func (s *tcpSender) transmit(seq int, retx bool) {
	host, ok := s.a.hostOf(s.rec.Spec.Src)
	if !ok {
		return
	}
	spec := s.rec.Spec
	p := packet.NewData(spec.ID, seq, s.payloadOf(seq), spec.Src, spec.Dst, 0)
	p.FirstSent = seq == 0 && !retx
	p.Fin = seq == s.segs-1
	p.Retx = retx
	s.sent[seq] = s.a.e.HostNow(host)
	s.rec.PacketsSent++
	if retx {
		s.retxed[seq] = true
		s.rec.Retransmits++
		s.a.RetxCounter.Inc()
	}
	s.a.e.HostSend(host, p)
}

func (s *tcpSender) onAck(host int32, ackNo int) {
	if s.done {
		return
	}
	if ackNo > s.una {
		// New data acknowledged.
		acked := ackNo - s.una
		// Karn's rule: never sample RTT from a retransmitted segment —
		// the measurement is ambiguous and, fed into the backoff, can
		// run away under persistent congestion.
		if t := s.sent[ackNo-1]; t > 0 && !s.retxed[ackNo-1] {
			s.rttSample(float64(s.a.e.HostNow(host).Sub(t)))
		}
		s.una = ackNo
		s.dupAcks = 0
		s.retries = 0
		for i := 0; i < acked; i++ {
			if s.cwnd < s.ssthresh {
				s.cwnd++ // slow start
			} else {
				s.cwnd += 1 / s.cwnd // congestion avoidance
			}
		}
		if s.una >= s.segs {
			s.done = true
			return
		}
		s.armRTO()
		s.sendAvailable()
		return
	}
	// Duplicate ACK.
	s.dupAcks++
	if s.dupAcks == s.a.cfg.DupThresh {
		s.dupAcks = 0
		s.ssthresh = math.Max(s.cwnd/2, 2)
		s.cwnd = s.ssthresh
		s.transmit(s.una, true)
		s.armRTO()
	}
}

func (s *tcpSender) rttSample(rtt float64) {
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
		return
	}
	diff := math.Abs(s.srtt - rtt)
	s.rttvar = 0.75*s.rttvar + 0.25*diff
	s.srtt = 0.875*s.srtt + 0.125*rtt
}

func (s *tcpSender) rto() simtime.Duration {
	rto := simtime.Duration(s.srtt + 4*s.rttvar)
	if rto < s.a.cfg.MinRTO {
		rto = s.a.cfg.MinRTO
	}
	rto *= simtime.Duration(1 << min(s.retries, 6)) // exponential backoff
	if max := s.a.cfg.MaxRTO; max > 0 && rto > max {
		rto = max
	}
	return rto
}

func (s *tcpSender) armRTO() {
	s.deadline = s.a.e.HostNow(s.host).Add(s.rto())
	if s.timerActive {
		return // the pending event will chase the new deadline
	}
	s.timerActive = true
	s.a.e.HostAtTimed(s.host, s.deadline, (*senderTimer)(s))
}

// onTimer fires the single retransmission timer: if the deadline moved
// (an ACK arrived since), chase it with one re-scheduled event instead
// of one event per ACK.
func (s *tcpSender) onTimer() {
	if s.done {
		s.timerActive = false
		return
	}
	if now := s.a.e.HostNow(s.host); now < s.deadline {
		s.a.e.HostAtTimed(s.host, s.deadline, (*senderTimer)(s))
		return
	}
	s.timerActive = false
	s.onRTO()
}

func (s *tcpSender) onRTO() {
	if s.done {
		return
	}
	s.a.RTOCounter.Inc()
	s.retries++
	if s.retries > s.a.cfg.MaxRetries {
		s.done = true
		s.rec.TimedOut = true
		return
	}
	s.ssthresh = math.Max(s.cwnd/2, 2)
	s.cwnd = s.a.cfg.InitCwnd
	s.dupAcks = 0
	s.transmit(s.una, true)
	s.armRTO()
}

// --- TCP receiver ---

type tcpReceiver struct {
	a   *Agent
	rec *FlowRecord

	got       []bool
	cum       int // next expected seq
	remaining int
	inited    bool
}

func (r *tcpReceiver) init() {
	mss := r.a.cfg.MSS
	segs := (r.rec.Spec.Bytes + mss - 1) / mss
	if segs == 0 {
		segs = 1
	}
	r.got = make([]bool, segs)
	r.remaining = segs
	r.inited = true
}

func (r *tcpReceiver) onData(host int32, p *packet.Packet) {
	if !r.inited {
		r.init()
	}
	if !r.rec.FirstDelivered {
		r.rec.FirstDelivered = true
		r.rec.FirstPacketLatency = r.a.e.HostNow(host).Sub(r.rec.Spec.Start)
	}
	r.rec.PacketsGot++
	if p.Seq < len(r.got) && !r.got[p.Seq] {
		r.got[p.Seq] = true
		r.remaining--
		for r.cum < len(r.got) && r.got[r.cum] {
			r.cum++
		}
		if r.remaining == 0 && !r.rec.Completed {
			r.rec.Completed = true
			r.rec.FCT = r.a.e.HostNow(host).Sub(r.rec.Spec.Start)
		}
	}
	// Acknowledge (cumulative) — the ACK resolves like any packet.
	host, ok := r.a.hostOf(r.rec.Spec.Dst)
	if !ok {
		return
	}
	ack := packet.NewAck(p.FlowID, r.cum, r.rec.Spec.Dst, r.rec.Spec.Src, 0)
	r.a.e.HostSend(host, ack)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
