// Package slab recycles objects of one type and allocates new ones a chunk
// at a time, so a caller that takes one object per key or per request pays
// one heap allocation per chunk instead of one per object.
package slab

import "unsafe"

// chunkBytes is the size of one chunk: a size class of its own, so a chunk
// wastes at most one object's size to rounding where one object at a time
// can waste an eighth of each (a 56-byte object takes a 64-byte slot).
const chunkBytes = 8 << 10

// List is a stack of recycled objects over a supply of fresh ones. The zero
// List is ready to use. Chunks never move, so every pointer Get returns
// stays valid for as long as the caller holds it; objects are never given
// back to the heap one at a time, only a whole chunk once nothing points
// into it.
type List[T any] struct {
	free  []*T
	fresh []T // the unused rest of the newest chunk
}

// Get pops a recycled object, whose fields hold whatever its last user left
// in them, or else cuts a zeroed one from the current chunk, allocating the
// next chunk when that one is used up.
func (l *List[T]) Get() *T {
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	if len(l.fresh) == 0 {
		var zero T
		l.fresh = make([]T, max(1, chunkBytes/max(1, int(unsafe.Sizeof(zero)))))
	}
	x := &l.fresh[0]
	l.fresh = l.fresh[1:]
	return x
}

// Put returns x for a later Get. The caller must not use x afterwards.
func (l *List[T]) Put(x *T) { l.free = append(l.free, x) }
