// Package eventq implements the discrete-event scheduler at the heart of
// the simulator: a binary min-heap of timestamped events with stable FIFO
// ordering among events scheduled for the same instant. Stability matters
// for determinism: two packets enqueued for the same nanosecond must always
// dequeue in the order they were scheduled.
package eventq

import "switchv2p/internal/simtime"

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
//
//v2plint:hotpath
func (f Event) Fire() {
	//v2plint:allow hotpath closure events serve setup and tests; per-packet schedulers pass pooled records to AtTimed/AfterTimed
	f()
}

type item struct {
	at  simtime.Time
	seq uint64 // tie-breaker: insertion order, or an AtTimedKeyed key
	ev  Timed
}

// Queue is a min-heap of events ordered by (time, insertion order).
// The zero value is an empty queue ready for use.
type Queue struct {
	heap   []item
	seq    uint64
	now    simtime.Time
	frozen string // non-empty: scheduling panics with this message
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
func (q *Queue) Len() int { return len(q.heap) }

// At schedules fn to run at instant t. Scheduling in the past (before the
// current instant) panics: it would violate causality and always indicates
// a bug in the caller.
//
//v2plint:hotpath
func (q *Queue) At(t simtime.Time, fn Event) { q.AtTimed(t, fn) }

// After schedules fn to run d after the current instant.
//
//v2plint:hotpath
func (q *Queue) After(d simtime.Duration, fn Event) {
	q.At(q.now.Add(d), fn)
}

// AtTimed schedules ev to fire at instant t. A record is stored in the
// heap by reference, and ownership passes to the queue until Fire.
//
//v2plint:hotpath
func (q *Queue) AtTimed(t simtime.Time, ev Timed) {
	if t < q.now {
		panic("eventq: scheduling event in the past")
	}
	if q.frozen != "" {
		panic(q.frozen)
	}
	q.seq++
	q.heap = append(q.heap, item{at: t, seq: q.seq, ev: ev})
	q.up(len(q.heap) - 1)
}

// AtTimedKeyed schedules ev at instant t with an explicit tie-break key
// instead of the insertion-order sequence. The key must be >= CrossKeyBase
// so handoff events never interleave with (or collide with) local
// sequence numbers; the caller owns key uniqueness within its key space.
// Used by the sharded engine for cross-shard packet handoffs: the key is
// derived from (source shard, source emission order), so the dispatch
// order at the destination is identical whether the record was inserted
// eagerly (oracle mode) or at a barrier (windowed parallel mode).
//
//v2plint:hotpath
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
//
//v2plint:hotpath
func (q *Queue) AfterTimed(d simtime.Duration, ev Timed) {
	q.AtTimed(q.now.Add(d), ev)
}

// Step dispatches the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was dispatched.
//
//v2plint:hotpath
func (q *Queue) Step() bool {
	if len(q.heap) == 0 {
		return false
	}
	it := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap[n] = item{} // release the record for GC
	q.heap = q.heap[:n]
	if n > 0 {
		q.down(0)
	}
	q.now = it.at
	it.ev.Fire()
	return true
}

// Run dispatches events until the queue is empty or until the next event
// would be later than horizon. It returns the number of events dispatched.
// Use horizon = simtime.Never to drain the queue.
//
//v2plint:hotpath
func (q *Queue) Run(horizon simtime.Time) int {
	n := 0
	for len(q.heap) > 0 && q.heap[0].at <= horizon {
		q.Step()
		n++
	}
	return n
}

// RunBefore dispatches events strictly earlier than t and returns the
// number dispatched. It is the sharded engine's window drain: with
// lookahead W, each shard runs RunBefore(T+W) knowing no cross-shard
// influence can arrive inside [T, T+W).
//
//v2plint:hotpath
func (q *Queue) RunBefore(t simtime.Time) int {
	n := 0
	for len(q.heap) > 0 && q.heap[0].at < t {
		q.Step()
		n++
	}
	return n
}

// PeekKey returns the (time, tie-break key) of the earliest pending
// event and whether one exists. The sharded oracle loop uses it to pick
// the globally next event across shard queues: compare (time, key)
// lexicographically, then by shard index.
func (q *Queue) PeekKey() (simtime.Time, uint64, bool) {
	if len(q.heap) == 0 {
		return 0, 0, false
	}
	return q.heap[0].at, q.heap[0].seq, true
}

// PeekTime returns the timestamp of the earliest pending event and whether
// one exists.
//
//v2plint:hotpath
func (q *Queue) PeekTime() (simtime.Time, bool) {
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
//
//v2plint:hotpath
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
//
//v2plint:hotpath
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
