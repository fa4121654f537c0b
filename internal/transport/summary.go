package transport

import (
	"fmt"

	"switchv2p/internal/simtime"
	"switchv2p/internal/stats"
)

// Summary aggregates flow records into the metrics the paper reports.
type Summary struct {
	Flows     int
	Completed int
	// TimedOut counts the flows whose sender gave up before the receiver
	// had every byte. A sender whose ACKs are all lost gives up on a
	// flow that has completed: that flow counts as completed only, so
	// Completed + TimedOut never exceeds Flows.
	TimedOut int

	AvgFCT simtime.Duration // mean over completed TCP flows
	P50FCT simtime.Duration
	P90FCT simtime.Duration
	P99FCT simtime.Duration
	MaxFCT simtime.Duration

	AvgFirstPacket simtime.Duration // mean over flows whose first packet arrived
	P50FirstPacket simtime.Duration
	P99FirstPacket simtime.Duration

	PacketsSent int64
	PacketsGot  int64
	Retransmits int64
}

// Summarize computes aggregate metrics over the agent's flow records.
func (a *Agent) Summarize() Summary {
	return Summarize(a.Records)
}

// Summarize computes aggregate metrics over a set of flow records.
func Summarize(records []*FlowRecord) Summary {
	var s Summary
	var fcts, firsts stats.Sample
	for _, r := range records {
		s.Flows++
		s.PacketsSent += r.PacketsSent
		s.PacketsGot += r.PacketsGot
		s.Retransmits += r.Retransmits
		if r.TimedOut && !r.Completed {
			s.TimedOut++
		}
		if r.Completed {
			s.Completed++
			// TCP: last byte delivered. UDP: last datagram delivered
			// (burst completion) — meaningful for the Microbursts trace.
			fcts.Add(float64(r.FCT))
		}
		if r.FirstDelivered {
			firsts.Add(float64(r.FirstPacketLatency))
		}
	}
	s.AvgFCT = simtime.Duration(fcts.Mean())
	s.P50FCT = simtime.Duration(fcts.Quantile(0.50))
	s.P90FCT = simtime.Duration(fcts.Quantile(0.90))
	s.P99FCT = simtime.Duration(fcts.Quantile(0.99))
	s.MaxFCT = simtime.Duration(fcts.Max())
	s.AvgFirstPacket = simtime.Duration(firsts.Mean())
	s.P50FirstPacket = simtime.Duration(firsts.Quantile(0.50))
	s.P99FirstPacket = simtime.Duration(firsts.Quantile(0.99))
	return s
}

// String renders the headline numbers.
func (s Summary) String() string {
	return fmt.Sprintf("flows=%d completed=%d avgFCT=%v avgFirst=%v retx=%d",
		s.Flows, s.Completed, s.AvgFCT, s.AvgFirstPacket, s.Retransmits)
}
