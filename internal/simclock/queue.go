package simclock

import (
	"container/heap"
	"fmt"
)

// Event is a callback scheduled at a virtual instant. The callback
// receives the queue so it can schedule follow-up events.
type Event struct {
	At   Time
	Name string // optional label, for tracing and tests
	Fn   func(q *Queue)

	seq   uint64 // tiebreaker: FIFO among events at the same instant
	index int    // heap bookkeeping; -1 once popped or cancelled
}

// Queue is a deterministic discrete-event queue. Events fire in
// (time, insertion order). Queue is not safe for concurrent use; the
// simulator is single-threaded by design so that runs are reproducible.
type Queue struct {
	now     Time
	nextSeq uint64
	heap    eventHeap
	fired   uint64
}

// NewQueue returns an empty queue positioned at the epoch.
func NewQueue() *Queue {
	return &Queue{}
}

// Now returns the current virtual time: the timestamp of the most
// recently fired event, or the epoch if none has fired.
func (q *Queue) Now() Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Fired returns the total number of events executed so far.
func (q *Queue) Fired() uint64 { return q.fired }

// Schedule enqueues fn to run at instant at. Scheduling in the past
// (before Now) panics: it indicates a simulator bug that would silently
// corrupt causality if allowed.
func (q *Queue) Schedule(at Time, name string, fn func(q *Queue)) *Event {
	if at < q.now {
		panic(fmt.Sprintf("simclock: scheduling %q at %v before now %v", name, at, q.now))
	}
	ev := &Event{At: at, Name: name, Fn: fn, seq: q.nextSeq}
	q.nextSeq++
	heap.Push(&q.heap, ev)
	return ev
}

// Cancel removes a pending event. Cancelling an event that already fired
// or was already cancelled is a no-op and returns false.
func (q *Queue) Cancel(ev *Event) bool {
	if ev == nil || ev.index < 0 {
		return false
	}
	heap.Remove(&q.heap, ev.index)
	ev.index = -1
	return true
}

// Step fires the next pending event and returns true, or returns false
// if the queue is empty.
func (q *Queue) Step() bool {
	if len(q.heap) == 0 {
		return false
	}
	ev := heap.Pop(&q.heap).(*Event)
	q.now = ev.At
	q.fired++
	ev.Fn(q)
	return true
}

// RunUntil fires events in order until the queue is empty or the next
// event would fire after the horizon. The clock is left at the horizon
// (or at the last event time if that is later, which cannot happen by
// construction). Events scheduled exactly at the horizon do fire.
func (q *Queue) RunUntil(horizon Time) {
	for len(q.heap) > 0 && q.heap[0].At <= horizon {
		q.Step()
	}
	if q.now < horizon {
		q.now = horizon
	}
}

// Run fires all events until the queue is empty. maxEvents bounds the
// number of events fired to guard against runaway self-scheduling loops;
// it returns an error if the bound is hit.
func (q *Queue) Run(maxEvents uint64) error {
	start := q.fired
	for q.Step() {
		if q.fired-start >= maxEvents {
			return fmt.Errorf("simclock: event budget %d exhausted at %v", maxEvents, q.now)
		}
	}
	return nil
}

// eventHeap implements heap.Interface ordered by (At, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
