package eventq

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"switchv2p/internal/packet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
)

// modelQueue is the independent reference the three-tier queue is checked
// against: every pending event in one slice, kept sorted by (at, key),
// equal pairs in insertion order. Local events take keys from the model's
// own insertion counter; keyed events bring theirs.
type modelQueue struct {
	pending []modelEvent
	seq     uint64
	now     simtime.Time
}

type modelEvent struct {
	at  simtime.Time
	key uint64
	id  int
}

func (m *modelQueue) push(at simtime.Time, id int) {
	m.seq++
	m.pushKeyed(at, m.seq, id)
}

// pushKeyed inserts after every pending event with the same (at, key):
// the order a stable sort of the appended slice would give.
func (m *modelQueue) pushKeyed(at simtime.Time, key uint64, id int) {
	i := sort.Search(len(m.pending), func(i int) bool {
		p := m.pending[i]
		return p.at > at || (p.at == at && p.key > key)
	})
	m.pending = slices.Insert(m.pending, i, modelEvent{at, key, id})
}

func (m *modelQueue) peek() (modelEvent, bool) {
	if len(m.pending) == 0 {
		return modelEvent{}, false
	}
	return m.pending[0], true
}

func (m *modelQueue) pop() (modelEvent, bool) {
	e, ok := m.peek()
	if ok {
		m.pending = m.pending[1:]
		m.now = e.at
	}
	return e, ok
}

// modelDelays straddle the wheel boundary (wheelSlots-1 in, wheelSlots
// out) and cover the simulator's own delays: serialization times, the
// 1 µs link delay, the 40 µs gateway hop, an RTO-scale timer, and "never".
var modelDelays = [...]simtime.Duration{0, 1, 30, 120, 1000, wheelSlots - 2, wheelSlots - 1, wheelSlots, wheelSlots + 1, 40000, 5 * simtime.Millisecond, simtime.Duration(simtime.Never)}

// fixedDelays are the delays scheduled through AfterFixed: one short
// enough for the wheel, the 10 µs misdelivery delay and the 40 µs
// gateway hop. The model treats AfterFixed as a plain push.
var fixedDelays = [...]simtime.Duration{1000, 10000, 40000}

// modelRun drives a Queue and the model with one op stream, two bytes
// per op, and checks they agree after every op. Each dispatched event
// pops the model from inside Fire, so Run and RunBefore are checked
// event by event, and may schedule a child on both.
//
// A schedule op's first byte: bits 0–2 the op (0–2 local, 3 keyed),
// bits 3–4 the child its Fire schedules (0 none, 1–2 local, 3 keyed),
// bits 5–6 both set: schedule through AfterFixed, bit 7: a local child
// through AfterFixed. Its second byte: the delay index in the low four
// bits (modelDelays, or fixedDelays through AfterFixed), the child's in
// the high four.
type modelRun struct {
	t       *testing.T
	q       Queue
	m       modelQueue
	nextID  int
	nextKey uint64
	fired   int
	inRun   bool // a Run call is dispatching
	peakLen int  // the model's PeakLen: pending count before each Run dispatch
}

type modelFire struct {
	r          *modelRun
	id         int
	child      int // index into modelDelays (fixedDelays if childFixed), or -1
	childKeyed bool
	childFixed bool
}

func (f *modelFire) Fire() {
	r := f.r
	r.fired++
	if r.inRun {
		r.peakLen = max(r.peakLen, len(r.m.pending))
	}
	want, ok := r.m.pop()
	if !ok || want.id != f.id {
		r.t.Fatalf("event %d fired; model expected %+v (pending %v)", f.id, want, ok)
	}
	if r.q.Now() != r.m.now {
		r.t.Fatalf("Now = %d inside Fire of event %d, model %d", r.q.Now(), f.id, r.m.now)
	}
	if f.child >= 0 {
		r.schedule(f.child, f.childKeyed, f.childFixed, -1, false, false)
	}
}

// after returns the instant delay modelDelays[i] ahead, saturating at Never.
func (r *modelRun) after(i int) simtime.Time {
	at := r.q.Now().Add(modelDelays[i])
	if at < r.q.Now() {
		at = simtime.Never
	}
	return at
}

func (r *modelRun) schedule(delay int, keyed, fixed bool, child int, childKeyed, childFixed bool) {
	r.nextID++
	ev := &modelFire{r: r, id: r.nextID, child: child, childKeyed: childKeyed, childFixed: childFixed}
	if fixed {
		d := fixedDelays[delay%len(fixedDelays)]
		if at := r.q.Now().Add(d); at >= r.q.Now() {
			r.q.AfterFixed(d, ev)
			r.m.push(at, ev.id)
			return
		}
		delay = len(modelDelays) - 1 // the clock is near Never: schedule at Never
	}
	at := r.after(delay)
	if !keyed {
		r.q.AtTimed(at, ev)
		r.m.push(at, ev.id)
		return
	}
	// A varying high part makes key order differ from insertion order.
	r.nextKey++
	key := CrossKeyBase | uint64(ev.id*7%5)<<40 | r.nextKey
	r.q.AtTimedKeyed(at, ev, key)
	r.m.pushKeyed(at, key, ev.id)
}

func (r *modelRun) check(op int) {
	t := r.t
	if r.q.Len() != len(r.m.pending) {
		t.Fatalf("op %d: Len = %d, model %d", op, r.q.Len(), len(r.m.pending))
	}
	if r.q.Now() != r.m.now {
		t.Fatalf("op %d: Now = %d, model %d", op, r.q.Now(), r.m.now)
	}
	if r.q.PeakLen() != r.peakLen {
		t.Fatalf("op %d: PeakLen = %d, model %d", op, r.q.PeakLen(), r.peakLen)
	}
	want, ok := r.m.peek()
	if at, got := r.q.PeekTime(); got != ok || at != want.at {
		t.Fatalf("op %d: PeekTime = %d,%v, model %d,%v", op, at, got, want.at, ok)
	}
	if at, key, got := r.q.PeekKey(); got != ok || at != want.at || key != want.key {
		t.Fatalf("op %d: PeekKey = %d,%#x,%v, model %d,%#x,%v", op, at, key, got, want.at, want.key, ok)
	}
}

func runModelOps(t *testing.T, ops []byte) {
	r := &modelRun{t: t}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], int(ops[i+1])
		delay := arg & 15 % len(modelDelays)
		switch op & 7 {
		case 0, 1, 2, 3: // schedule
			child, childKeyed, childFixed := -1, false, false
			if kind := op >> 3 & 3; kind != 0 {
				child, childKeyed, childFixed = arg>>4%len(modelDelays), kind == 3, kind != 3 && op&128 != 0
			}
			keyed := op&7 == 3
			r.schedule(delay, keyed, !keyed && op>>5&3 == 3, child, childKeyed, childFixed)
		case 4, 5:
			before := r.fired
			_, pending := r.m.peek()
			if stepped := r.q.Step(); stepped != pending || (r.fired-before == 1) != pending {
				t.Fatalf("op %d: Step = %v and fired %d, model had pending = %v", i/2, stepped, r.fired-before, pending)
			}
		case 6:
			h, before := r.after(delay), r.fired
			r.inRun = true
			n := r.q.Run(h)
			r.inRun = false
			if n != r.fired-before {
				t.Fatalf("op %d: Run returned %d, fired %d", i/2, n, r.fired-before)
			}
			if e, ok := r.m.peek(); ok && e.at <= h {
				t.Fatalf("op %d: Run(%d) left the event at %d pending", i/2, h, e.at)
			}
		case 7:
			h, before := r.after(delay), r.fired
			if n := r.q.RunBefore(h); n != r.fired-before {
				t.Fatalf("op %d: RunBefore returned %d, fired %d", i/2, n, r.fired-before)
			}
			if e, ok := r.m.peek(); ok && e.at < h {
				t.Fatalf("op %d: RunBefore(%d) left the event at %d pending", i/2, h, e.at)
			}
		}
		r.check(i / 2)
	}
	// Drain: whatever is left must come out in model order too.
	for r.q.Step() {
	}
	r.check(len(ops) / 2)
}

// TestQueueMatchesModel replays random op streams against the reference
// model. Schedule-heavy streams build up to a thousand pending events;
// the others keep both tiers sparse and the clock moving.
func TestQueueMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*1500)
		rng.Read(ops)
		if seed%3 == 0 { // schedule-heavy: turn most dispatch ops into schedules
			for i := 0; i < len(ops); i += 2 {
				if rng.Intn(4) != 0 {
					ops[i] &^= 4
				}
			}
		}
		runModelOps(t, ops)
	}
}

// FuzzQueueModel lets the fuzzer search for an op stream on which the
// queue and the model disagree. Seed corpus: testdata/fuzz/FuzzQueueModel.
func FuzzQueueModel(f *testing.F) {
	f.Add([]byte{0, 4, 0, 7, 4, 0, 4, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runModelOps(t, ops)
	})
}

// viaLane in a TestTierBoundaryOrder step schedules through AfterFixed.
const viaLane = 1

// TestTierBoundaryOrder pins (at, key) order where the three tiers meet.
func TestTierBoundaryOrder(t *testing.T) {
	type step struct {
		at    simtime.Time // schedule at this instant …
		keyed uint64       // … with this key when >= CrossKeyBase, through AfterFixed when viaLane …
		by    int          // … from inside the Fire of this event (-1: before the run)
	}
	for _, tc := range []struct {
		name  string
		steps []step // event i logs i
		want  []int
	}{
		{"heap event, then a wheel event for the same instant", // 0 is 2000 ns ahead, 2 only 500
			[]step{{2000, 0, -1}, {1500, 0, -1}, {2000, 0, 1}}, []int{1, 0, 2}},
		{"zero-delay push waits behind a same-instant heap event",
			[]step{{5000, 0, -1}, {5000, 0, -1}, {5000, 0, 0}}, []int{0, 1, 2}},
		{"keyed event sorts after a same-instant wheel event scheduled later",
			[]step{{500, CrossKeyBase | 9, -1}, {500, 0, -1}}, []int{1, 0}},
		{"keyed event sorts after same-instant wheel events on both sides of it",
			[]step{{500, 0, -1}, {500, CrossKeyBase | 9, -1}, {500, 0, -1}}, []int{0, 2, 1}},
		{"keyed events order by key, not insertion",
			[]step{{500, CrossKeyBase | 9, -1}, {500, CrossKeyBase | 3, -1}}, []int{1, 0}},
		{"cursor wraps past the last slot", // from slot 500: slots 510 and 600, then 0, 376 and 499 of the next lap
			[]step{{500, 0, -1}, {510, 0, 0}, {wheelSlots + 376, 0, 0}, {600, 0, 0}, {wheelSlots + 499, 0, 0}, {wheelSlots, 0, 0}}, []int{0, 1, 3, 5, 2, 4}},
		{"wheelSlots-1 on the wheel, wheelSlots on the heap",
			[]step{{wheelSlots, 0, -1}, {wheelSlots - 1, 0, -1}, {wheelSlots, 0, 3}, {1, 0, -1}}, []int{3, 1, 0, 2}},
		{"idle gap longer than the wheel",
			[]step{{10, 0, -1}, {5000, 0, -1}, {5010, 0, 1}, {9000, 0, 1}, {5000, 0, 1}}, []int{0, 1, 4, 2, 3}},
		{"heap item, lane heads and a keyed item at one instant",
			[]step{{40000, 0, -1}, {40000, viaLane, -1}, {40000, CrossKeyBase | 1, -1}, {40000, viaLane, -1}, {40000, 0, -1}}, []int{0, 1, 3, 4, 2}},
		{"keyed item, then a same-instant lane item",
			[]step{{40000, CrossKeyBase | 1, -1}, {40000, viaLane, -1}}, []int{1, 0}},
		{"lane head scheduled before a same-instant heap item",
			[]step{{40000, viaLane, -1}, {40000, 0, -1}}, []int{0, 1}},
		{"wheel event after a same-instant lane head scheduled earlier", // 2 is 1000 ns ahead of 1
			[]step{{40000, viaLane, -1}, {39000, 0, -1}, {40000, 0, 1}}, []int{1, 0, 2}},
		{"lane empties and refills around a heap item",
			[]step{{10000, viaLane, -1}, {20000, viaLane, 0}, {50000, 0, -1}, {30000, viaLane, 1}}, []int{0, 1, 3, 2}},
		{"two lanes interleave by time",
			[]step{{40000, viaLane, -1}, {10000, viaLane, -1}, {50000, viaLane, 1}, {20000, viaLane, 1}}, []int{1, 3, 0, 2}},
		{"fixed delay shorter than the wheel takes the wheel",
			[]step{{wheelSlots - 1, viaLane, -1}, {wheelSlots - 1, 0, -1}, {wheelSlots, viaLane, -1}}, []int{0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var q Queue
			var got []int
			var scheduleBy func(by int)
			scheduleBy = func(by int) {
				for i, s := range tc.steps {
					if s.by != by {
						continue
					}
					i := i
					fire := Event(func() {
						got = append(got, i)
						if q.Now() != tc.steps[i].at {
							t.Errorf("event %d fired at %d, want %d", i, q.Now(), tc.steps[i].at)
						}
						scheduleBy(i)
					})
					switch s.keyed {
					case 0:
						q.AtTimed(s.at, fire)
					case viaLane:
						q.AfterFixed(s.at.Sub(q.Now()), fire)
					default:
						q.AtTimedKeyed(s.at, fire, s.keyed)
					}
				}
			}
			scheduleBy(-1)
			if n := q.Run(simtime.Never); n != len(tc.steps) || q.Len() != 0 {
				t.Fatalf("dispatched %d of %d events, %d left", n, len(tc.steps), q.Len())
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("fire order %v, want %v", got, tc.want)
				}
			}
		})
	}
}

// TestLinkDelayLandsInWheel is the white-box guard on the coupling the
// optimisation depends on: a link arms its next delivery at most the
// link delay plus the longest serialization ahead (an MTU on the slower
// of the two link classes), and nearly every event is such a delivery,
// so that must take the wheel. Shrinking wheelSlots or raising the
// default delay past it would leave every test green and the simulator
// far slower.
func TestLinkDelayLandsInWheel(t *testing.T) {
	for _, cfg := range []topology.Config{topology.FT8(), topology.FT16()} {
		var q Queue
		ev := &countEvent{n: new(int)}
		q.AtTimed(12345, ev)
		q.Step()
		ahead := cfg.LinkDelay + simtime.TransmitTime(packet.MTU, min(cfg.HostLinkBps, cfg.FabricLinkBps))
		q.AfterTimed(ahead, ev)
		if q.wheelLen != 1 || len(q.heap) != 0 {
			t.Fatalf("LinkDelay %v plus an MTU's serialization, %v: wheel holds %d events and the heap %d, want 1 and 0 (wheelSlots = %d)",
				cfg.LinkDelay, ahead, q.wheelLen, len(q.heap), wheelSlots)
		}
		q.AfterTimed(wheelSlots, ev)
		if q.wheelLen != 1 || len(q.heap) != 1 || q.Len() != 2 {
			t.Fatalf("a delay of wheelSlots ns must take the heap: wheel %d, heap %d, Len %d", q.wheelLen, len(q.heap), q.Len())
		}
	}
}

// TestFixedDelayLandsInLane is the white-box guard on where AfterFixed
// puts an event: a delay the wheel covers takes the wheel, a longer one
// the lane for that delay, one lane per distinct delay, never the heap.
func TestFixedDelayLandsInLane(t *testing.T) {
	var q Queue
	ev := &countEvent{n: new(int)}
	q.AfterFixed(wheelSlots-1, ev)
	q.AfterFixed(wheelSlots, ev)
	q.AfterFixed(40000, ev)
	q.AfterFixed(40000, ev)
	if q.wheelLen != 1 || len(q.heap) != 0 || len(q.lanes) != 2 || q.lanes[0].n != 1 || q.lanes[1].n != 2 || q.Len() != 4 {
		t.Fatalf("wheel %d, heap %d, %d lanes %+v, Len %d; want 1 on the wheel, lanes of 1 and 2", q.wheelLen, len(q.heap), len(q.lanes), q.lanes, q.Len())
	}
}

// TestScheduleRejections covers the panics every tier shares: a frozen
// queue rejects every scheduling call with its message (and still
// dispatches what it holds), and AtTimedKeyed rejects local-range keys
// and the past.
func TestScheduleRejections(t *testing.T) {
	panics := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if got := recover(); got != want {
				t.Fatalf("%s: panic %v, want %q", name, got, want)
			}
		}()
		fn()
	}
	var q Queue
	ev := &countEvent{n: new(int)}
	q.AtTimed(100, ev)  // wheel
	q.AtTimed(5000, ev) // heap
	q.Step()
	panics("keyed in the past", "eventq: scheduling event in the past", func() { q.AtTimedKeyed(99, ev, CrossKeyBase) })
	panics("local-range key", "eventq: AtTimedKeyed key below CrossKeyBase", func() { q.AtTimedKeyed(200, ev, CrossKeyBase-1) })
	if q.Frozen() {
		t.Fatal("new queue reports Frozen")
	}
	q.Freeze("frozen for the test")
	if !q.Frozen() {
		t.Fatal("Frozen = false after Freeze")
	}
	panics("AtTimed, wheel range", "frozen for the test", func() { q.AtTimed(q.Now().Add(5), ev) })
	panics("AtTimed, heap range", "frozen for the test", func() { q.AtTimed(q.Now().Add(5000), ev) })
	panics("AfterTimed", "frozen for the test", func() { q.AfterTimed(5, ev) })
	panics("AfterFixed, lane range", "frozen for the test", func() { q.AfterFixed(40000, ev) })
	panics("At", "frozen for the test", func() { q.At(q.Now(), func() {}) })
	panics("After", "frozen for the test", func() { q.After(5, func() {}) })
	panics("AtTimedKeyed", "frozen for the test", func() { q.AtTimedKeyed(q.Now(), ev, CrossKeyBase) })
	if q.Len() != 1 || q.Run(simtime.Never) != 1 || *ev.n != 2 {
		t.Fatalf("frozen queue: Len %d, fired %d; want the pending event still dispatched", q.Len(), *ev.n)
	}
}
