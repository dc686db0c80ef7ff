//go:build tivadebug

package rowpool

import (
	"strings"
	"testing"
)

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	fn()
}

// TestReleasedTableIsPoisoned: a holder that keeps reading a table after
// releasing it sees the poison value, not its old counts.
func TestReleasedTableIsPoisoned(t *testing.T) {
	a := make([]uint32, 64)
	b := make([]uint64, 64)
	Put(a)
	Put(b)
	for i := range a {
		if a[i] != 0xdeadbeef || b[i] != 0xdeadbeefdeadbeef {
			t.Fatalf("entry %d after release: %#x, %#x", i, a[i], b[i])
		}
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	a := make([]uint32, 96)
	Put(a)
	mustPanic(t, "released twice", func() { Put(a) })
	b := make([]uint64, 96)
	Put(b)
	mustPanic(t, "released twice", func() { Put(b) })
}

// TestWriteAfterReleasePanics: a table scribbled on while it sits in the
// free list panics when it is next handed out. The length is unique to
// this test so the scribbled table is the only candidate.
func TestWriteAfterReleasePanics(t *testing.T) {
	a := make([]uint32, 77)
	mustPanic(t, "written after release", func() {
		// sync.Pool may drop an item at any GC (and at random under the
		// race detector); retry so a dropped table does not turn into a
		// spurious failure.
		for i := 0; i < 16; i++ {
			Put(a)
			a[5] = 1
			Get[uint32](77)
		}
	})
}
