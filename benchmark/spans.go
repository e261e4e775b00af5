package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// boundary is a place the harness can observe from outside the program:
// a call it makes itself, or a wrapper of its own interposed at an HTTP
// boundary. Spans are recorded only here — nothing inside the program
// is instrumented.
type boundary int

const (
	bOp     boundary = iota // the harness's own call: one wake-up pair
	bHop1                   // RoundTripper on the device's HTTP client
	bRouter                 // http.Handler in front of the cluster router
	bHop2                   // RoundTripper on the router's node-facing client
	bNode                   // http.Handler in front of a serving node
	nBoundaries
	noParent boundary = -1
)

var boundaryNames = [nBoundaries]string{"device.pair", "hop1.roundtrip", "router.handler", "hop2.roundtrip", "node.handler"}

// span is one recorded interval. Parent is the index of the span that
// caused it within the same trace (-1 for a root); spans of one op share
// Op. Times are nanoseconds since the recorder was made.
type span struct {
	Name    string `json:"name"`
	Rung    string `json:"rung"`
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`

	at boundary
}

// recorder collects the spans of one rung. The ladder keeps exactly one
// request in flight, so a span's parent is simply the latest span begun
// at its parent boundary; topology names that boundary per rung (a
// routed rung nests node under hop2 under router under hop1, a
// single-node rung nests node directly under hop1).
type recorder struct {
	mu       sync.Mutex
	base     time.Time
	rung     string
	mode     atomic.Int32 // recOff, recAll or recRootOnly
	topology [nBoundaries]boundary
	last     [nBoundaries]int
	op       int
	gen      int // bumped by drain, so a late end cannot touch the next batch
	spans    []span
}

func newRecorder(rung string, topology [nBoundaries]boundary) *recorder {
	r := &recorder{base: time.Now(), rung: rung, topology: topology, spans: make([]span, 0, 1<<14)}
	for i := range r.last {
		r.last[i] = -1
	}
	return r
}

// Recording modes. Off and root-only are decided before the clock is
// read or the lock taken, so a silent wrapper costs one atomic load.
const (
	recOff int32 = iota
	recAll
	recRootOnly // only bOp: the wrappers fall silent (tracing-overhead epochs)
)

// spanRef names an open span: its batch generation and index.
type spanRef struct{ gen, idx int }

var noSpan = spanRef{idx: -1}

// begin opens a span at b, or returns noSpan while recording is off
// (period rounds and warm-up are not part of any op).
func (r *recorder) begin(b boundary) spanRef {
	if m := r.mode.Load(); m == recOff || (m == recRootOnly && b != bOp) {
		return noSpan
	}
	now := time.Since(r.base).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if pb := r.topology[b]; pb != noParent {
		parent = r.last[pb]
	}
	if b == bOp {
		r.op++
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: boundaryNames[b], Rung: r.rung, Op: r.op, ID: id, Parent: parent, StartNS: now, EndNS: -1, at: b})
	r.last[b] = id
	return spanRef{r.gen, id}
}

func (r *recorder) end(ref spanRef) {
	if ref.idx < 0 {
		return
	}
	now := time.Since(r.base).Nanoseconds()
	r.mu.Lock()
	if ref.gen == r.gen && ref.idx < len(r.spans) {
		r.spans[ref.idx].EndNS = now
	}
	r.mu.Unlock()
}

// drain returns the spans recorded so far and starts an empty batch
// (keeping the capacity, so steady-state recording does not allocate).
// A server-side handler can return a few microseconds after its client
// already has the reply, so callers drain between epochs, after a
// period round trip has given every wrapper time to close its span.
func (r *recorder) drain() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	r.spans = r.spans[:0]
	r.gen++
	for i := range r.last {
		r.last[i] = -1
	}
	return out
}

// selfTimes returns, for each span, its duration minus the part of that
// interval its child spans cover: children are clipped to the parent
// (a handler may outlive the round trip that caused it by a moment) and
// overlapping children are counted once. Spans must carry IDs equal to
// their index; an unfinished span (EndNS < StartNS) has zero length.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && s.EndNS > s.StartNS {
			kids[s.Parent] = append(kids[s.Parent], iv{s.StartNS, s.EndNS})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.EndNS <= s.StartNS {
			continue
		}
		self[i] = s.EndNS - s.StartNS
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].lo < ks[b].lo })
		covered, edge := int64(0), s.StartNS
		for _, k := range ks {
			lo, hi := k.lo, k.hi
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}
