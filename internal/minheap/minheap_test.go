package minheap

import (
	"container/heap"
	"reflect"
	"testing"

	"repro/internal/simclock"
)

type item struct{ key, id int }

func itemLess(a, b *item) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.id < b.id
}

// boxed is the same heap driven by container/heap.
type boxed []item

func (h boxed) Len() int           { return len(h) }
func (h boxed) Less(i, j int) bool { return itemLess(&h[i], &h[j]) }
func (h boxed) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxed) Push(x any)        { *h = append(*h, x.(item)) }
func (h *boxed) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// TestArrayMatchesContainerHeap pins the package's contract: after any
// sequence of Init, Push and Pop the backing array — not just the pop
// order — is exactly what container/heap leaves. Keys repeat, so ties
// (broken by id) and equal elements are exercised.
func TestArrayMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := simclock.NewRand(seed)
		var typed []item
		var ref boxed
		for i := 0; i < 50; i++ {
			it := item{key: r.Intn(8), id: i}
			typed, ref = append(typed, it), append(ref, it)
		}
		Init(typed, itemLess)
		heap.Init(&ref)
		for step := 0; step < 400; step++ {
			if len(typed) > 0 && r.Intn(2) == 0 {
				var got item
				typed, got = Pop(typed, itemLess)
				if want := heap.Pop(&ref).(item); got != want {
					t.Fatalf("seed %d step %d: popped %v, container/heap pops %v", seed, step, got, want)
				}
			} else {
				it := item{key: r.Intn(8), id: r.Intn(60)}
				typed = Push(typed, it, itemLess)
				heap.Push(&ref, it)
			}
			if !reflect.DeepEqual(typed, []item(ref)) {
				t.Fatalf("seed %d step %d: arrays diverged\n got %v\nwant %v", seed, step, typed, []item(ref))
			}
		}
	}
}

func TestPushPopDoNotAllocate(t *testing.T) {
	h := make([]item, 0, 64)
	for i := 0; i < 32; i++ {
		h = Push(h, item{key: i % 5, id: i}, itemLess)
	}
	if n := testing.AllocsPerRun(100, func() {
		var it item
		h, it = Pop(h, itemLess)
		h = Push(h, it, itemLess)
	}); n != 0 {
		t.Fatalf("Push+Pop allocate %v objects", n)
	}
}
