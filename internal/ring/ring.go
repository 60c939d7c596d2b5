// Package ring is the frontend's one bounded log: a fixed-capacity FIFO
// that overwrites its oldest value when full and counts every value it
// overwrote, so a reader can tell how much history it has lost.
//
// A Ring is not safe for concurrent use. Each owner guards it with a lock
// of its own, because what must stay atomic differs by owner: the
// lifecycle bus, for one, appends to its ring, fans the event out to
// subscribers and wakes its waiters in a single critical section.
package ring

import "fmt"

// Ring holds at most a fixed number of values, oldest first. The zero
// value has no capacity; use New.
type Ring[T any] struct {
	buf     []T // fills up to cap(buf), then is overwritten in place
	start   int // index of the oldest value once buf is full
	evicted uint64
}

// New returns an empty ring that holds at most capacity values. The
// backing array is allocated up front, so a full ring never allocates.
func New[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		panic(fmt.Sprintf("ring: capacity %d, want at least 1", capacity))
	}
	return &Ring[T]{buf: make([]T, 0, capacity)}
}

// Push appends v, evicting the oldest value when the ring is full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.start] = v
	r.start++
	if r.start == len(r.buf) {
		r.start = 0
	}
	r.evicted++
}

// Len reports how many values the ring holds.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Evicted counts the values newer pushes have overwritten.
func (r *Ring[T]) Evicted() uint64 { return r.evicted }

// Select returns the values keep accepts, oldest first; with limit > 0,
// only the newest limit of them.
func (r *Ring[T]) Select(keep func(T) bool, limit int) []T {
	out := make([]T, 0, len(r.buf))
	r.Each(func(v T) bool {
		if keep(v) {
			out = append(out, v)
		}
		return true
	})
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Each calls yield on every value, oldest first, and stops early when
// yield returns false.
func (r *Ring[T]) Each(yield func(T) bool) {
	for _, v := range r.buf[r.start:] {
		if !yield(v) {
			return
		}
	}
	for _, v := range r.buf[:r.start] {
		if !yield(v) {
			return
		}
	}
}
