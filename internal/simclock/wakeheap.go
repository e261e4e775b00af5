package simclock

// Wake is one pending device wake-up: client ID's next relevant trace
// event fires at At. It is the whole per-client footprint the streaming
// simulator keeps between wake-ups — 16 bytes — which is what makes a
// million-device event schedule fit in memory while the traces behind
// it stay lazy. The in-process simulator queues the same value per user,
// its ID an index into the users' timeline cursors.
type Wake struct {
	At Time
	ID int
}

// WakeHeap is a min-heap of wake-ups ordered by (At, ID). It holds no
// closures and no per-event allocations: entries are plain values in
// one backing slice, pushed and popped with zero boxing, so a heap over
// an entire simulated population costs 16 bytes per tracked client. The
// (At, ID) order makes drain order deterministic even when many clients
// share a wake-up instant — it is the simulator's one tie rule.
//
// The zero value is an empty, ready-to-use heap. WakeHeap is not safe
// for concurrent use; the streaming scheduler keeps one per worker, the
// in-process one a single heap.
type WakeHeap struct {
	a []Wake
}

// Len returns the number of pending wake-ups.
func (h *WakeHeap) Len() int { return len(h.a) }

// Peek returns the earliest wake-up without removing it. It panics on
// an empty heap; callers guard with Len.
func (h *WakeHeap) Peek() Wake { return h.a[0] }

// Push adds a wake-up.
func (h *WakeHeap) Push(w Wake) {
	h.a = append(h.a, w)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

// Pop removes and returns the earliest wake-up. It panics on an empty
// heap; callers guard with Len.
func (h *WakeHeap) Pop() Wake {
	top := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a = h.a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h.less(l, s) {
			s = l
		}
		if r < n && h.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		h.a[i], h.a[s] = h.a[s], h.a[i]
		i = s
	}
	return top
}

func (h *WakeHeap) less(i, j int) bool {
	if h.a[i].At != h.a[j].At {
		return h.a[i].At < h.a[j].At
	}
	return h.a[i].ID < h.a[j].ID
}
