package slab

import (
	"testing"
	"unsafe"
)

type obj struct {
	id  int
	buf []byte
}

// perChunk is the number of objs one chunk holds.
const perChunk = chunkBytes / int(unsafe.Sizeof(obj{}))

// TestGetReusesPutLIFO checks that Put objects come back newest first,
// with what their last user left in them, before any fresh one is cut.
func TestGetReusesPutLIFO(t *testing.T) {
	var l List[obj]
	a, b := l.Get(), l.Get()
	if a == b {
		t.Fatal("two Gets returned the same object")
	}
	a.id, b.id = 1, 2
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b || got.id != 2 {
		t.Fatalf("first Get after Put = %p (id %d), want the last Put %p", got, got.id, b)
	}
	if got := l.Get(); got != a || got.id != 1 {
		t.Fatalf("second Get after Put = %p (id %d), want %p", got, got.id, a)
	}
}

// TestFreshObjectsZeroedAndDistinct cuts several chunks' worth of objects:
// each is zeroed, none is handed out twice, and writing one leaves every
// other alone.
func TestFreshObjectsZeroedAndDistinct(t *testing.T) {
	var l List[obj]
	const n = 3*perChunk + 5
	seen := make(map[*obj]bool, n)
	all := make([]*obj, 0, n)
	for i := 0; i < n; i++ {
		x := l.Get()
		if x.id != 0 || x.buf != nil {
			t.Fatalf("fresh object %d not zeroed: %+v", i, *x)
		}
		if seen[x] {
			t.Fatalf("object %d handed out twice", i)
		}
		seen[x] = true
		x.id = i + 1
		all = append(all, x)
	}
	for i, x := range all {
		if x.id != i+1 {
			t.Fatalf("object %d holds id %d, want %d", i, x.id, i+1)
		}
	}
}
