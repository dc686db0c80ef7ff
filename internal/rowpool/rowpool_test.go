package rowpool

import "testing"

// TestGetIsZeroed pins the contract a holder relies on: whatever a table
// held when it was released, the next Get of that length reads all zero.
func TestGetIsZeroed(t *testing.T) {
	for round := 0; round < 4; round++ {
		a := Get[uint32](4096)
		b := Get[uint64](512)
		if len(a) != 4096 || len(b) != 512 {
			t.Fatalf("lengths %d, %d; want 4096, 512", len(a), len(b))
		}
		for i, v := range a {
			if v != 0 {
				t.Fatalf("round %d: uint32 table entry %d = %#x", round, i, v)
			}
		}
		for i, v := range b {
			if v != 0 {
				t.Fatalf("round %d: uint64 table entry %d = %#x", round, i, v)
			}
		}
		for i := range a {
			a[i] = uint32(i + 1)
		}
		for i := range b {
			b[i] = ^uint64(i)
		}
		Put(a)
		Put(b)
	}
}

// TestLengthsAndTypesDoNotMix: a table only ever comes back for its own
// element type and exact length.
func TestLengthsAndTypesDoNotMix(t *testing.T) {
	for round := 0; round < 4; round++ {
		Put(make([]uint32, 100))
		Put(make([]uint64, 100))
		Put(make([]uint32, 101))
		if got := len(Get[uint32](101)); got != 101 {
			t.Fatalf("Get[uint32](101) has length %d", got)
		}
		if got := len(Get[uint64](100)); got != 100 {
			t.Fatalf("Get[uint64](100) has length %d", got)
		}
		if got := len(Get[uint32](100)); got != 100 {
			t.Fatalf("Get[uint32](100) has length %d", got)
		}
	}
	if got := Get[uint32](0); len(got) != 0 {
		t.Fatalf("Get(0) has length %d", len(got))
	}
	Put([]uint32(nil)) // no-op
}
