// Package eventq implements the discrete-event scheduler at the heart of
// the simulator: a queue of timestamped events dispatched in (time,
// insertion order) order. Stability matters for determinism: two packets
// enqueued for the same nanosecond must always dequeue in the order they
// were scheduled.
//
// The queue has three tiers. Events due less than wheelSlots nanoseconds
// after the current instant — link deliveries, nearly everything a
// simulation schedules — go on a timing wheel with one slot per
// nanosecond: O(1) to schedule, O(1) to dispatch, no comparisons. An
// event scheduled through AfterFixed a constant d >= wheelSlots ahead
// (the gateway and hypervisor delays) joins the FIFO lane for d: the
// clock only advances and sequence numbers only grow, so a lane fills
// in (time, seq) order and its head is its earliest event, O(1) both
// ways. Everything else (retransmission timers, flow starts,
// cross-shard handoffs) goes in a 4-ary min-heap. The queue caches the
// earliest of the heap root and the lane heads, and dispatch takes
// whichever of that and the wheel's head is smaller by (time, tie-break
// key), so the order is exactly the order one heap would produce.
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

// lane is the FIFO of the events scheduled through AfterFixed with one
// delay d: a ring of items, oldest at head. Each was scheduled d after
// a clock that only advances, with a sequence number that only grows,
// so ring order is (at, seq) order.
type lane struct {
	d    simtime.Duration
	ring []item // length a power of two, or zero before the first push
	head int    // index of the oldest item
	n    int    // items pending
}

// push appends it, doubling the ring when full.
func (l *lane) push(it item) {
	if l.n == len(l.ring) {
		ring := make([]item, max(16, 2*len(l.ring)))
		for i := 0; i < l.n; i++ {
			ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
		}
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = it
	l.n++
}

// pop removes and returns the oldest item. The lane must not be empty.
func (l *lane) pop() item {
	it := l.ring[l.head]
	l.ring[l.head] = item{} // release the record for GC
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return it
}

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
//
// Far invariant: the heap and the lanes hold farLen events, and when
// farLen > 0, (farAt, farSeq) is the smallest (at, seq) among them:
// the heap root if farLane is 0, else the head of lanes[farLane-1].
type Queue struct {
	heap   []item
	lanes  []lane
	seq    uint64
	now    simtime.Time
	frozen string // non-empty: scheduling panics with this message
	// peakLen is the largest Len() Run has seen before a dispatch.
	peakLen int

	farLen  int // events pending in the heap and the lanes
	farAt   simtime.Time
	farSeq  uint64
	farLane int // where the earliest far event is: 0 the heap root, i the head of lanes[i-1]

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
// AfterTimed, AfterFixed, AtTimedKeyed) panic with the given message.
// The sharded engine freezes the root queue so stray schedulers — a
// scheme or tool that was not audited for shard ownership — fail loudly
// instead of silently scheduling events no worker will ever dispatch.
func (q *Queue) Freeze(msg string) { q.frozen = msg }

// Frozen reports whether the queue rejects new events.
func (q *Queue) Frozen() bool { return q.frozen != "" }

// Now returns the current simulated time: the timestamp of the most
// recently dispatched event.
func (q *Queue) Now() simtime.Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.wheelLen + q.farLen }

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
		q.pushHeap(item{at: t, seq: q.seq, ev: ev})
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
	q.pushHeap(item{at: t, seq: key, ev: ev})
}

// AfterTimed schedules ev to fire d after the current instant.
func (q *Queue) AfterTimed(d simtime.Duration, ev Timed) {
	q.AtTimed(q.now.Add(d), ev)
}

// AfterFixed is AfterTimed for a caller whose delay d is one constant it
// schedules with over and over, such as a fixed processing latency. A d
// of at least wheelSlots puts ev on the FIFO lane for d instead of the
// heap: O(1) both ways, in the same dispatch order. A shorter d takes
// the wheel, as with AfterTimed.
func (q *Queue) AfterFixed(d simtime.Duration, ev Timed) {
	if d < wheelSlots {
		q.AfterTimed(d, ev)
		return
	}
	t := q.now.Add(d)
	if t < q.now {
		panic("eventq: scheduling event in the past")
	}
	if q.frozen != "" {
		panic(q.frozen)
	}
	q.seq++
	i := 0
	for i < len(q.lanes) && q.lanes[i].d != d {
		i++
	}
	if i == len(q.lanes) {
		q.lanes = append(q.lanes, lane{d: d})
	}
	q.lanes[i].push(item{at: t, seq: q.seq, ev: ev})
	q.farPushed(t, q.seq, i+1)
}

// pushHeap inserts it into the heap.
func (q *Queue) pushHeap(it item) {
	q.heap = append(q.heap, it)
	q.up(len(q.heap) - 1)
	q.farPushed(it.at, it.seq, 0)
}

// farPushed counts a far event just added at (at, seq) to the heap
// (where 0) or to lanes[where-1], and makes it the cached earliest far
// event if it is one.
func (q *Queue) farPushed(at simtime.Time, seq uint64, where int) {
	if q.farLen == 0 || at < q.farAt || at == q.farAt && seq < q.farSeq {
		q.farAt, q.farSeq, q.farLane = at, seq, where
	}
	q.farLen++
}

// Step dispatches the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was dispatched.
func (q *Queue) Step() bool {
	var ev Timed
	switch {
	case q.wheelFirst():
		ev = q.popWheel()
	case q.farLen > 0:
		ev = q.popFar()
	default:
		return false
	}
	ev.Fire()
	return true
}

// wheelFirst reports whether the earliest pending event, by (time,
// tie-break key), is the wheel's head rather than the earliest far one.
func (q *Queue) wheelFirst() bool {
	if q.wheelLen == 0 {
		return false
	}
	if q.farLen == 0 {
		return true
	}
	if q.wheelAt != q.farAt {
		return q.wheelAt < q.farAt
	}
	return q.wheelSeq() < q.farSeq
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

// popFar removes the earliest far event, advances the clock to it,
// finds the next earliest far event and returns the removed one's
// event. There must be a far event.
func (q *Queue) popFar() Timed {
	var it item
	if q.farLane == 0 {
		it = q.heap[0]
		n := len(q.heap) - 1
		q.heap[0] = q.heap[n]
		q.heap[n] = item{} // release the record for GC
		q.heap = q.heap[:n]
		if n > 0 {
			q.down(0)
		}
	} else {
		it = q.lanes[q.farLane-1].pop()
	}
	q.now = it.at
	q.farLen--
	if q.farLen > 0 {
		q.findFar()
	}
	return it.ev
}

// findFar recomputes the cached earliest far event from the heap root
// and the lane heads. There must be a far event.
func (q *Queue) findFar() {
	q.farLane = -1
	if len(q.heap) > 0 {
		q.farAt, q.farSeq, q.farLane = q.heap[0].at, q.heap[0].seq, 0
	}
	for i := range q.lanes {
		l := &q.lanes[i]
		if l.n == 0 {
			continue
		}
		h := &l.ring[l.head]
		if q.farLane < 0 || h.at < q.farAt || h.at == q.farAt && h.seq < q.farSeq {
			q.farAt, q.farSeq, q.farLane = h.at, h.seq, i+1
		}
	}
}

// Run dispatches events until the queue is empty or until the next event
// would be later than horizon. It returns the number of events dispatched
// and keeps PeakLen up to date. Use horizon = simtime.Never to drain the
// queue.
func (q *Queue) Run(horizon simtime.Time) int {
	n := 0
	for {
		var ev Timed
		switch {
		case q.wheelFirst():
			if q.wheelAt > horizon {
				return n
			}
			q.peakLen = max(q.peakLen, q.Len())
			ev = q.popWheel()
		case q.farLen > 0:
			if q.farAt > horizon {
				return n
			}
			q.peakLen = max(q.peakLen, q.Len())
			ev = q.popFar()
		default:
			return n
		}
		ev.Fire()
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
	if q.farLen == 0 {
		return 0, 0, false
	}
	return q.farAt, q.farSeq, true
}

// PeekTime returns the timestamp of the earliest pending event and whether
// one exists.
func (q *Queue) PeekTime() (simtime.Time, bool) {
	if q.wheelFirst() {
		return q.wheelAt, true
	}
	if q.farLen == 0 {
		return 0, false
	}
	return q.farAt, true
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
