// Package eventq implements the discrete-event scheduler at the heart of
// the simulator: a queue of timestamped events dispatched in (time,
// insertion order) order. Stability matters for determinism: two packets
// enqueued for the same nanosecond must always dequeue in the order they
// were scheduled.
//
// The queue has two tiers. Events due less than wheelSlots nanoseconds
// after the current instant — link deliveries, nearly everything a
// simulation schedules — go on a timing wheel with one slot per
// nanosecond: O(1) to schedule, O(1) to dispatch, no comparisons. Everything else (gateway delays, retransmission timers,
// flow starts, cross-shard handoffs) goes in a 4-ary min-heap. Dispatch
// takes whichever tier's head is smaller by (time, tie-break key), so
// the order is exactly the order one heap would produce.
package eventq

import (
	"math/bits"

	"switchv2p/internal/simtime"
)

// Timed is an event: a record whose Fire method runs when its instant
// arrives. Schedulers on hot paths implement Timed with a reusable
// (pooled) record instead of capturing state in a fresh closure per
// event — storing a pointer-typed Timed in the queue allocates nothing.
type Timed interface {
	// Fire runs the event. The queue has already released its reference
	// to the record when Fire is called, so Fire may recycle or
	// reschedule the same record immediately.
	Fire()
}

// Event is a callback scheduled to run at a simulated instant: the Timed
// for setup code, tests and rare control actions, where a closure per
// event is fine. A func value is pointer-shaped, so storing one in the
// queue allocates nothing beyond the closure itself.
type Event func()

// Fire calls the callback.
func (f Event) Fire() {
	f()
}

type item struct {
	at  simtime.Time
	seq uint64 // tie-breaker: insertion order, or an AtTimedKeyed key
	ev  Timed
}

// The near-term tier is a timing wheel of wheelSlots one-nanosecond
// slots. Its size follows from what the simulator schedules: a link arms
// its next delivery at most the link delay plus one serialization time
// ahead — 1 000 ns plus 120 ns for an MTU on the default 100 Gb/s host
// links, which already passes 1 024 — and the next populated delay is
// the 40 µs gateway hop, so 2 048 slots is the smallest power of two
// that catches every delivery, and still does on a 10 Gb/s link (1 200
// ns per MTU). A configuration with a longer link delay or a slower link
// stays correct: those events simply take the heap.
const (
	wheelSlots = 2048
	wheelMask  = wheelSlots - 1
)

// wheelNode is one pending wheel event, linked into its slot's FIFO (or
// the freelist) by slab index + 1, so zero means "none" and the zero
// Queue needs no initialization.
type wheelNode struct {
	ev   Timed
	seq  uint64
	next uint32
}

// wheelSlot is the FIFO of the events due at one instant, as slab
// indices + 1 (zero: empty).
type wheelSlot struct{ head, tail uint32 }

// Queue dispatches events in (time, insertion order) order. The zero
// value is an empty queue ready for use.
//
// Wheel invariant: every wheel event was scheduled less than wheelSlots
// ns ahead of a clock that has only advanced since, and nothing pending
// is earlier than the clock, so all wheel events lie in
// [now, now+wheelSlots). Hence slot at&wheelMask holds a single
// timestamp at a time, events join it in increasing seq, and slot FIFO
// order is (at, seq) order; circular slot order starting at
// now&wheelMask is time order.
type Queue struct {
	heap   []item
	seq    uint64
	now    simtime.Time
	frozen string // non-empty: scheduling panics with this message
	// peakLen is the largest Len() Run has seen before a dispatch.
	peakLen int

	wheelLen int          // events pending in the wheel
	wheelAt  simtime.Time // earliest wheel timestamp; meaningful when wheelLen > 0
	nodes    []wheelNode  // slab backing every slot FIFO; grows to the wheel's high-water mark
	free     uint32       // freelist head, slab index + 1
	occSum   uint64       // bit w set: occ[w] != 0
	occ      [wheelSlots / 64]uint64
	slots    [wheelSlots]wheelSlot
}

// CrossKeyBase is the tie-break key space reserved for cross-queue
// handoffs (AtTimedKeyed). Ordinary insertions draw sequence numbers
// from 1 upward, so any key with this bit set sorts after every local
// event scheduled for the same instant — and two handoff keys order
// among themselves by their explicit key value, independent of the
// moment they were inserted. That independence is what makes a sharded
// simulation's dispatch order a pure function of event content rather
// than of when a synchronization round happened to drain a mailbox.
const CrossKeyBase = uint64(1) << 63

// Freeze makes every subsequent scheduling call (At, After, AtTimed,
// AfterTimed, AtTimedKeyed) panic with the given message. The sharded
// engine freezes the root queue so stray schedulers — a scheme or tool
// that was not audited for shard ownership — fail loudly instead of
// silently scheduling events no worker will ever dispatch.
func (q *Queue) Freeze(msg string) { q.frozen = msg }

// Frozen reports whether the queue rejects new events.
func (q *Queue) Frozen() bool { return q.frozen != "" }

// Now returns the current simulated time: the timestamp of the most
// recently dispatched event.
func (q *Queue) Now() simtime.Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) + q.wheelLen }

// PeakLen returns the largest number of pending events Run has seen
// before dispatching one, over every Run call so far: the queue-depth
// high-water mark the engine profile reports.
func (q *Queue) PeakLen() int { return q.peakLen }

// At schedules fn to run at instant t. Scheduling in the past (before the
// current instant) panics: it would violate causality and always indicates
// a bug in the caller.
func (q *Queue) At(t simtime.Time, fn Event) { q.AtTimed(t, fn) }

// After schedules fn to run d after the current instant.
func (q *Queue) After(d simtime.Duration, fn Event) {
	q.At(q.now.Add(d), fn)
}

// AtTimed schedules ev to fire at instant t. The queue holds the record
// by reference, and ownership passes to the queue until Fire.
func (q *Queue) AtTimed(t simtime.Time, ev Timed) {
	if t < q.now {
		panic("eventq: scheduling event in the past")
	}
	if q.frozen != "" {
		panic(q.frozen)
	}
	q.seq++
	if t-q.now >= wheelSlots {
		q.heap = append(q.heap, item{at: t, seq: q.seq, ev: ev})
		q.up(len(q.heap) - 1)
		return
	}
	ref := q.free // slab index + 1 of the node to use
	if ref != 0 {
		q.free = q.nodes[ref-1].next
	} else {
		q.nodes = append(q.nodes, wheelNode{})
		ref = uint32(len(q.nodes))
	}
	q.nodes[ref-1] = wheelNode{ev: ev, seq: q.seq}
	slot := &q.slots[t&wheelMask]
	if slot.head == 0 {
		slot.head = ref
		w := uint(t&wheelMask) >> 6
		q.occ[w] |= 1 << (uint(t) & 63)
		q.occSum |= 1 << w
	} else {
		q.nodes[slot.tail-1].next = ref
	}
	slot.tail = ref
	if q.wheelLen == 0 || t < q.wheelAt {
		q.wheelAt = t
	}
	q.wheelLen++
}

// AtTimedKeyed schedules ev at instant t with an explicit tie-break key
// instead of the insertion-order sequence. The key must be >= CrossKeyBase
// so handoff events never interleave with (or collide with) local
// sequence numbers; the caller owns key uniqueness within its key space.
// Used by the sharded engine for cross-shard packet handoffs: the key is
// derived from (source shard, source emission order), so the dispatch
// order at the destination is identical whether the record was inserted
// eagerly (oracle mode) or at a barrier (windowed parallel mode).
func (q *Queue) AtTimedKeyed(t simtime.Time, ev Timed, key uint64) {
	if t < q.now {
		panic("eventq: scheduling event in the past")
	}
	if key < CrossKeyBase {
		panic("eventq: AtTimedKeyed key below CrossKeyBase")
	}
	if q.frozen != "" {
		panic(q.frozen)
	}
	q.heap = append(q.heap, item{at: t, seq: key, ev: ev})
	q.up(len(q.heap) - 1)
}

// AfterTimed schedules ev to fire d after the current instant.
func (q *Queue) AfterTimed(d simtime.Duration, ev Timed) {
	q.AtTimed(q.now.Add(d), ev)
}

// Step dispatches the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was dispatched.
func (q *Queue) Step() bool {
	var ev Timed
	switch {
	case q.wheelFirst():
		ev = q.popWheel()
	case len(q.heap) > 0:
		ev = q.popHeap()
	default:
		return false
	}
	ev.Fire()
	return true
}

// wheelFirst reports whether the earliest pending event, by (time,
// tie-break key), is the wheel's head rather than the heap's.
func (q *Queue) wheelFirst() bool {
	if q.wheelLen == 0 {
		return false
	}
	if len(q.heap) == 0 {
		return true
	}
	h := &q.heap[0]
	if q.wheelAt != h.at {
		return q.wheelAt < h.at
	}
	return q.wheelSeq() < h.seq
}

// wheelSeq returns the tie-break key of the wheel's head event. The wheel
// must not be empty.
func (q *Queue) wheelSeq() uint64 {
	return q.nodes[q.slots[q.wheelAt&wheelMask].head-1].seq
}

// popWheel unlinks the wheel's head event, advances the clock to it and
// returns it. The wheel must not be empty.
func (q *Queue) popWheel() Timed {
	at := q.wheelAt
	slot := &q.slots[at&wheelMask]
	ref := slot.head
	n := &q.nodes[ref-1]
	ev := n.ev
	slot.head = n.next
	*n = wheelNode{next: q.free} // also releases the record for GC
	q.free = ref
	q.wheelLen--
	q.now = at
	if slot.head == 0 {
		w := uint(at&wheelMask) >> 6
		q.occ[w] &^= 1 << (uint(at) & 63)
		if q.occ[w] == 0 {
			q.occSum &^= 1 << w
		}
		if q.wheelLen > 0 {
			q.wheelAt = q.nextOccupied(at)
		}
	}
	return ev
}

// nextOccupied returns the timestamp of the first occupied slot in
// circular order from now's own slot — by the wheel invariant, the
// earliest wheel event. The wheel must not be empty.
func (q *Queue) nextOccupied(now simtime.Time) simtime.Time {
	c := uint(now & wheelMask)
	w := c >> 6
	slot := c
	if rest := q.occ[w] >> (c & 63); rest != 0 {
		slot += uint(bits.TrailingZeros64(rest))
	} else {
		// The first occupied word after w, else wrap to the lowest one
		// (which may be w itself: its bits below c).
		sum := q.occSum
		if after := sum &^ (1<<(w+1) - 1); after != 0 {
			sum = after
		}
		w = uint(bits.TrailingZeros64(sum))
		slot = w<<6 + uint(bits.TrailingZeros64(q.occ[w]))
	}
	return now + simtime.Time((slot-c)&wheelMask)
}

// popHeap removes the heap's root, advances the clock to it and returns
// its event. The heap must not be empty.
func (q *Queue) popHeap() Timed {
	it := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap[n] = item{} // release the record for GC
	q.heap = q.heap[:n]
	if n > 0 {
		q.down(0)
	}
	q.now = it.at
	return it.ev
}

// Run dispatches events until the queue is empty or until the next event
// would be later than horizon. It returns the number of events dispatched
// and keeps PeakLen up to date. Use horizon = simtime.Never to drain the
// queue.
func (q *Queue) Run(horizon simtime.Time) int {
	n := 0
	for {
		t, ok := q.PeekTime()
		if !ok || t > horizon {
			return n
		}
		q.peakLen = max(q.peakLen, q.Len())
		q.Step()
		n++
	}
}

// RunBefore dispatches events strictly earlier than t and returns the
// number dispatched. It is the sharded engine's window drain: with
// lookahead W, each shard runs RunBefore(T+W) knowing no cross-shard
// influence can arrive inside [T, T+W).
func (q *Queue) RunBefore(t simtime.Time) int {
	n := 0
	for {
		next, ok := q.PeekTime()
		if !ok || next >= t {
			return n
		}
		q.Step()
		n++
	}
}

// PeekKey returns the (time, tie-break key) of the earliest pending
// event and whether one exists. The sharded oracle loop uses it to pick
// the globally next event across shard queues: compare (time, key)
// lexicographically, then by shard index.
func (q *Queue) PeekKey() (simtime.Time, uint64, bool) {
	if q.wheelFirst() {
		return q.wheelAt, q.wheelSeq(), true
	}
	if len(q.heap) == 0 {
		return 0, 0, false
	}
	return q.heap[0].at, q.heap[0].seq, true
}

// PeekTime returns the timestamp of the earliest pending event and whether
// one exists.
func (q *Queue) PeekTime() (simtime.Time, bool) {
	if q.wheelFirst() {
		return q.wheelAt, true
	}
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

func (q *Queue) less(i, j int) bool {
	a, b := &q.heap[i], &q.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The heap is 4-ary: simulation queues grow large (hundreds of
// thousands of pending events), and the shallower tree roughly halves
// the swap count of sift-down compared to a binary heap.
const heapArity = 4

// up sifts the item at i toward the root (heap insert).
func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !q.less(i, parent) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

// down sifts the item at i toward the leaves (heap pop).
func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		small := i
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if q.less(c, small) {
				small = c
			}
		}
		if small == i {
			return
		}
		q.heap[i], q.heap[small] = q.heap[small], q.heap[i]
		i = small
	}
}
