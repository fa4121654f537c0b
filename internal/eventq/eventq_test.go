package eventq

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"switchv2p/internal/simtime"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
	if q.Step() {
		t.Fatalf("Step on empty queue returned true")
	}
	if _, ok := q.PeekTime(); ok {
		t.Fatalf("PeekTime on empty queue returned ok")
	}
	if q.Now() != 0 {
		t.Fatalf("Now = %v, want 0", q.Now())
	}
}

func TestDispatchOrder(t *testing.T) {
	var q Queue
	var got []int
	q.At(30, func() { got = append(got, 3) })
	q.At(10, func() { got = append(got, 1) })
	q.At(20, func() { got = append(got, 2) })
	q.Run(simtime.Never)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("dispatch order = %v", got)
	}
	if q.Now() != 30 {
		t.Fatalf("Now = %v, want 30", q.Now())
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.At(42, func() { got = append(got, i) })
	}
	q.Run(simtime.Never)
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-timestamp events dispatched out of order: got[%d]=%d", i, v)
		}
	}
}

func TestAfterUsesCurrentInstant(t *testing.T) {
	var q Queue
	var fired simtime.Time
	q.At(100, func() {
		q.After(50, func() { fired = q.Now() })
	})
	q.Run(simtime.Never)
	if fired != 150 {
		t.Fatalf("nested After fired at %v, want 150", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var q Queue
	q.At(100, func() {})
	q.Step()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic scheduling in the past")
		}
	}()
	q.At(50, func() {})
}

func TestRunHorizon(t *testing.T) {
	var q Queue
	count := 0
	for _, at := range []simtime.Time{10, 20, 30, 40} {
		q.At(at, func() { count++ })
	}
	if n := q.Run(25); n != 2 || count != 2 {
		t.Fatalf("Run(25) dispatched %d (count %d), want 2", n, count)
	}
	if at, ok := q.PeekTime(); !ok || at != 30 {
		t.Fatalf("PeekTime = %v,%v, want 30,true", at, ok)
	}
	if n := q.Run(simtime.Never); n != 2 || count != 4 {
		t.Fatalf("drain dispatched %d (count %d), want 2 more", n, count)
	}
}

func TestEventsScheduledDuringDispatch(t *testing.T) {
	var q Queue
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 10 {
			q.After(1, rec)
		}
	}
	q.At(0, rec)
	q.Run(simtime.Never)
	if depth != 10 {
		t.Fatalf("depth = %d, want 10", depth)
	}
	if q.Now() != 9 {
		t.Fatalf("Now = %v, want 9", q.Now())
	}
}

func TestRandomizedOrderProperty(t *testing.T) {
	// Property: events always fire in non-decreasing timestamp order, and
	// the clock equals the last fired timestamp.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		n := 200
		times := make([]simtime.Time, n)
		for i := range times {
			times[i] = simtime.Time(rng.Intn(50))
		}
		var fired []simtime.Time
		for _, at := range times {
			at := at
			q.At(at, func() { fired = append(fired, at) })
		}
		q.Run(simtime.Never)
		if len(fired) != n {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return q.Now() == fired[n-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// recordEvent is a minimal Timed implementation for the tests: a
// pre-bound record appending its id to a shared log.
type recordEvent struct {
	out *[]int
	id  int
}

func (r *recordEvent) Fire() { *r.out = append(*r.out, r.id) }

// TestTypedAndClosureFIFOInterleaved checks same-instant FIFO stability
// when typed-event records and closure events share a timestamp: the two
// kinds draw from one insertion-order sequence, so scheduling order is
// dispatch order regardless of kind.
func TestTypedAndClosureFIFOInterleaved(t *testing.T) {
	var q Queue
	var got []int
	const n = 100
	for i := 0; i < n; i++ {
		i := i
		if i%2 == 0 {
			q.AtTimed(42, &recordEvent{out: &got, id: i})
		} else {
			q.At(42, func() { got = append(got, i) })
		}
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	q.Run(simtime.Never)
	if len(got) != n {
		t.Fatalf("dispatched %d events, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-timestamp events dispatched out of order: got[%d]=%d", i, v)
		}
	}
}

// TestItemIsThreeWords pins the heap item's layout: time, tie-break key
// and one event interface — 32 bytes on a 64-bit platform. Sift-up and
// sift-down copy items, so a fourth field is a cost on every event.
func TestItemIsThreeWords(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(item{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(item{}) = %d, want 32", got)
	}
	if n := reflect.TypeOf(item{}).NumField(); n != 3 {
		t.Fatalf("item has %d fields, want 3 (at, seq, ev)", n)
	}
}

// TestTypedAfterAndPastPanic covers AfterTimed's base instant and the
// causality panic on the typed path.
func TestTypedAfterAndPastPanic(t *testing.T) {
	var q Queue
	var got []int
	q.At(100, func() { q.AfterTimed(50, &recordEvent{out: &got, id: 150}) })
	q.Run(simtime.Never)
	if len(got) != 1 || got[0] != 150 || q.Now() != 150 {
		t.Fatalf("AfterTimed fired %v at %v, want [150] at 150", got, q.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling typed event in the past")
		}
	}()
	q.AtTimed(50, &recordEvent{out: &got, id: 0})
}

// TestStepRunEquivalenceAtHorizon drives two identically loaded queues —
// one with Run(horizon), one with a manual PeekTime/Step loop — and
// checks they dispatch the same events, stop at the same clock, and
// leave the same residue at the horizon boundary (events exactly at the
// horizon run; events just past it stay pending).
func TestStepRunEquivalenceAtHorizon(t *testing.T) {
	const horizon = simtime.Time(20)
	load := func(q *Queue, out *[]int) {
		// Timestamps straddle the horizon, with ties both at and beyond
		// it, mixing typed and closure events.
		for i, at := range []simtime.Time{10, 20, 20, 21, 30, 20, 40} {
			i := i
			if i%2 == 0 {
				q.AtTimed(at, &recordEvent{out: out, id: i})
			} else {
				at := at
				q.At(at, func() { *out = append(*out, i) })
			}
		}
	}
	var qRun, qStep Queue
	var gotRun, gotStep []int
	load(&qRun, &gotRun)
	load(&qStep, &gotStep)

	nRun := qRun.Run(horizon)
	nStep := 0
	for {
		at, ok := qStep.PeekTime()
		if !ok || at > horizon {
			break
		}
		qStep.Step()
		nStep++
	}

	if nRun != nStep {
		t.Fatalf("Run dispatched %d, Step loop dispatched %d", nRun, nStep)
	}
	if nRun != 4 {
		t.Fatalf("dispatched %d events up to horizon, want 4 (10, 20, 20, 20)", nRun)
	}
	if len(gotRun) != len(gotStep) {
		t.Fatalf("logs differ in length: %v vs %v", gotRun, gotStep)
	}
	for i := range gotRun {
		if gotRun[i] != gotStep[i] {
			t.Fatalf("logs diverge at %d: %v vs %v", i, gotRun, gotStep)
		}
	}
	if qRun.Now() != qStep.Now() || qRun.Now() != horizon {
		t.Fatalf("clocks differ: Run at %v, Step at %v, want %v", qRun.Now(), qStep.Now(), horizon)
	}
	if qRun.Len() != qStep.Len() || qRun.Len() != 3 {
		t.Fatalf("residue differs: Run %d, Step %d, want 3 pending", qRun.Len(), qStep.Len())
	}

	// Draining past the horizon stays equivalent.
	qRun.Run(simtime.Never)
	for qStep.Step() {
	}
	if len(gotRun) != 7 || len(gotStep) != 7 {
		t.Fatalf("drain incomplete: %v vs %v", gotRun, gotStep)
	}
	for i := range gotRun {
		if gotRun[i] != gotStep[i] {
			t.Fatalf("post-drain logs diverge at %d: %v vs %v", i, gotRun, gotStep)
		}
	}
}

// TestTypedScheduleAllocFree proves the typed fast path allocates
// nothing once the heap's backing array is warm: scheduling a pooled
// record and stepping it costs zero heap allocations.
func TestTypedScheduleAllocFree(t *testing.T) {
	var q Queue
	sink := 0
	ev := &countEvent{n: &sink}
	// Warm the heap's backing array.
	q.AtTimed(1, ev)
	q.Step()
	allocs := testing.AllocsPerRun(100, func() {
		q.AfterTimed(1, ev)
		q.Step()
	})
	if allocs != 0 {
		t.Fatalf("typed schedule+dispatch allocates %v per op, want 0", allocs)
	}
	// A lane's ring, once warm, is reused the same way.
	q.AfterFixed(40000, ev)
	q.Step()
	allocs = testing.AllocsPerRun(100, func() {
		q.AfterFixed(40000, ev)
		q.Step()
	})
	if allocs != 0 {
		t.Fatalf("AfterFixed schedule+dispatch allocates %v per op, want 0", allocs)
	}
}

// countEvent increments a counter on Fire (no per-fire append, so the
// alloc test measures only the queue).
type countEvent struct{ n *int }

func (c *countEvent) Fire() { *c.n++ }

func BenchmarkQueue(b *testing.B) {
	b.Run("closure", func(b *testing.B) {
		var q Queue
		rng := rand.New(rand.NewSource(1))
		fn := func() {}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.At(q.Now().Add(simtime.Duration(rng.Intn(1000))), fn)
			if q.Len() > 1024 {
				q.Step()
			}
		}
	})
	b.Run("typed", func(b *testing.B) {
		var q Queue
		rng := rand.New(rand.NewSource(1))
		sink := 0
		ev := &countEvent{n: &sink}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.AtTimed(q.Now().Add(simtime.Duration(rng.Intn(1000))), ev)
			if q.Len() > 1024 {
				q.Step()
			}
		}
	})
}

// simmix draws from the histogram of schedule-ahead delays measured on
// the hadoop-nocache bench workload with one event per link crossing
// (PERF.md §1.1): a link's next delivery one serialization time or a few
// ahead (6, 118, 236, 354 ns), a delivery to an idle link 1 002 ns
// ahead, the 40 µs gateway hop and a rare 200 µs retransmission timer.
func simmix(rng *rand.Rand) simtime.Duration {
	x := rng.Intn(1000) // per mille
	for _, b := range []struct {
		upTo  int
		delay simtime.Duration
	}{{146, 6}, {633, 118}, {805, 236}, {901, 354}, {918, 1002}, {999, 40000}} {
		if x < b.upTo {
			return b.delay
		}
	}
	return 200000
}

// holdMixes are BenchmarkHold's delay distributions. simmix-lanes is
// simmix with the gateway hop scheduled through AfterFixed, the way the
// engine schedules it. uniform100us is what bench's eventq.hold_ns
// kernel draws — 2 % of it lands within the wheel.
var holdMixes = []struct {
	name  string
	draw  func(rng *rand.Rand) simtime.Duration
	lanes bool // schedule the 40 µs draws through AfterFixed
}{
	{"simmix", simmix, false},
	{"simmix-lanes", simmix, true},
	{"uniform100us", func(rng *rand.Rand) simtime.Duration {
		return simtime.Duration(rng.Int63n(int64(100 * simtime.Microsecond)))
	}, false},
}

// BenchmarkHold is the classic hold model at the pending-event counts the
// bench workloads peak at: pop the earliest event, schedule one pooled
// record a drawn delay ahead. One op is one Step plus one AfterTimed (or
// AfterFixed, for a lane mix's 40 µs draws).
func BenchmarkHold(b *testing.B) {
	for _, mix := range holdMixes {
		for _, pending := range []int{500, 12000, 41000} {
			b.Run(fmt.Sprintf("%s/pending=%d", mix.name, pending), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				delays := make([]simtime.Duration, 1<<12)
				for i := range delays {
					delays[i] = mix.draw(rng)
				}
				var q Queue
				sink := 0
				ev := &countEvent{n: &sink}
				schedule := func(d simtime.Duration) {
					if mix.lanes && d == 40000 {
						q.AfterFixed(d, ev)
					} else {
						q.AfterTimed(d, ev)
					}
				}
				for i := 0; i < pending; i++ {
					schedule(delays[i%len(delays)])
				}
				hold := func(n int) {
					for i := 0; i < n; i++ {
						q.Step()
						schedule(delays[i%len(delays)])
					}
				}
				hold(4 * pending) // reach the steady-state spread of pending events
				b.ReportAllocs()
				b.ResetTimer()
				hold(b.N)
			})
		}
	}
}
