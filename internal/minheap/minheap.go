// Package minheap is container/heap's algorithm over a typed slice:
// the same comparisons and swaps in the same order, so a heap's array
// layout — which adserver's top-up scan walks, and which is therefore
// part of the engine's determinism contract — is what container/heap
// would have left, but elements are pushed and popped as plain values
// instead of being boxed into an interface once per Push and per Pop.
package minheap

// Init establishes heap order over h.
func Init[T any](h []T, less func(a, b *T) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(h, i, len(h), less)
	}
}

// Push adds x and returns the grown heap.
func Push[T any](h []T, x T, less func(a, b *T) bool) []T {
	h = append(h, x)
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !less(&h[j], &h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

// Pop removes the minimum and returns the shrunk heap with it. It
// panics on an empty heap; callers guard with len.
func Pop[T any](h []T, less func(a, b *T) bool) ([]T, T) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	down(h, 0, n, less)
	return h[:n], h[n]
}

func down[T any](h []T, i, n int, less func(a, b *T) bool) {
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && less(&h[r], &h[j]) {
			j = r
		}
		if !less(&h[j], &h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
