// Package rowpool recycles the per-row tables a simulation run allocates:
// the DRAM disturbance counters (dense rows and sparse pages), the dense
// flip-bitset words and CRA's per-row activation counters. A paper-scale
// run builds megabytes of them per lane and is done with them when it
// ends; handing them to the next run of the same geometry keeps a seed
// sweep from re-creating, for every seed, tables it just threw away.
//
// Tables are kept in one sync.Pool per exact length, so the garbage
// collector bounds what the free list retains: an idle table survives at
// most two collections. Get always returns a zeroed table, recycled or
// new, so a holder cannot tell the two apart.
//
// Ownership is explicit. Only the code that built the object holding a
// table may hand it back with Put, once, after its last use. Under the
// `tivadebug` build tag a released table is filled with a poison value;
// releasing a table that still holds nothing but poison panics (a double
// release), and so does recycling a table whose poison was overwritten
// (a write after release).
package rowpool

import (
	"fmt"
	"sync"
)

// Word is the element type of a recyclable table.
type Word interface{ uint32 | uint64 }

// poison fills released tables under tivadebug; a live counter never
// reaches it. Converting it to uint32 keeps the low half, 0xdeadbeef.
var poison uint64 = 0xdeadbeefdeadbeef

// freeList is one sync.Pool per table length.
type freeList[T Word] struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool
}

var (
	u32 freeList[uint32]
	u64 freeList[uint64]
)

func listOf[T Word]() *freeList[T] {
	if l, ok := any(&u32).(*freeList[T]); ok {
		return l
	}
	return any(&u64).(*freeList[T])
}

func (f *freeList[T]) pool(n int) *sync.Pool {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.pools[n]
	if p == nil {
		if f.pools == nil {
			f.pools = make(map[int]*sync.Pool)
		}
		p = new(sync.Pool)
		f.pools[n] = p
	}
	return p
}

// Get returns a zeroed table of length n, recycled when one is free.
func Get[T Word](n int) []T {
	if n <= 0 {
		return make([]T, n)
	}
	if v := listOf[T]().pool(n).Get(); v != nil {
		t := *v.(*[]T)
		if debug && !allPoison(t) {
			panic(fmt.Sprintf("rowpool: %d-entry table written after release", n))
		}
		clear(t)
		return t
	}
	return make([]T, n)
}

// Put hands t back for reuse. The caller must own t and must not touch
// it afterwards.
func Put[T Word](t []T) {
	if len(t) == 0 {
		return
	}
	if debug {
		if allPoison(t) {
			panic(fmt.Sprintf("rowpool: %d-entry table released twice", len(t)))
		}
		p := T(poison)
		for i := range t {
			t[i] = p
		}
	}
	listOf[T]().pool(len(t)).Put(&t)
}

func allPoison[T Word](t []T) bool {
	p := T(poison)
	for _, v := range t {
		if v != p {
			return false
		}
	}
	return true
}
