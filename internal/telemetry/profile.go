package telemetry

import (
	"fmt"
	"time"

	"switchv2p/internal/simtime"
)

// EngineProfile aggregates the engine-loop measurements the profiling
// hooks collect: how many events the discrete-event loop dispatched,
// how deep the pending-event heap got, and how much wall clock one
// simulated second costs. The engine fills it in when a profile is
// attached (simnet.Engine.Prof); repeated Run calls accumulate.
type EngineProfile struct {
	// Events is the number of events the run loop dispatched
	// (including telemetry sampler ticks, if a sampler is active).
	Events int64
	// HeapHighWater is the largest pending-event count the run loop saw
	// before dispatching an event.
	HeapHighWater int
	// Mallocs is the number of heap allocations performed inside the run
	// loop (runtime.MemStats.Mallocs delta across the profiled drain):
	// the regression signal for the allocation-free hot path. Like Wall
	// it measures the host process, never simulation state.
	Mallocs uint64
	// Wall is the wall-clock time spent inside the run loop.
	Wall time.Duration
	// SimEnd is the simulated instant at which the last run stopped.
	SimEnd simtime.Time
	// ShardEvents breaks Events down per shard domain when the sharded
	// engine ran (nil on the serial engine): ShardEvents[d] is the
	// cumulative event count dispatched by domain d's queue.
	ShardEvents []int64
}

// EventsPerSec returns the wall-clock event dispatch rate.
func (p *EngineProfile) EventsPerSec() float64 {
	if p.Wall <= 0 {
		return 0
	}
	return float64(p.Events) / p.Wall.Seconds()
}

// AllocsPerEvent returns the mean heap allocations per dispatched event.
func (p *EngineProfile) AllocsPerEvent() float64 {
	if p.Events == 0 {
		return 0
	}
	return float64(p.Mallocs) / float64(p.Events)
}

// WallPerSimSecond returns how many wall-clock seconds one simulated
// second costs (the simulator's slowdown factor).
func (p *EngineProfile) WallPerSimSecond() float64 {
	if p.SimEnd <= 0 {
		return 0
	}
	simSecs := float64(p.SimEnd) / float64(simtime.Second)
	return p.Wall.Seconds() / simSecs
}

// String summarizes the profile in one line.
func (p *EngineProfile) String() string {
	return fmt.Sprintf("events=%d heapHW=%d wall=%v events/sec=%.0f wall-per-sim-sec=%.1f allocs/event=%.3f",
		p.Events, p.HeapHighWater, p.Wall.Round(time.Microsecond),
		p.EventsPerSec(), p.WallPerSimSecond(), p.AllocsPerEvent())
}
