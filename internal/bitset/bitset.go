// Package bitset provides a dense, preallocated bit vector used by the
// simulation hot path. The paper's hardware framing — priority encoders
// over per-bank state, fixed-size FIFOs — maps onto flat arrays, and the
// simulator mirrors that: classification sets that used to live in Go
// maps (aggressor ground truth, per-window flip bookkeeping) become
// bitsets sized once from the validated device geometry, so hot-path
// membership tests are a shift, a mask and one load — no hashing, no
// allocation.
package bitset

import "math/bits"

// Bitset is a fixed-capacity bit vector. The zero value is an empty set
// of capacity 0; create sized sets with New.
type Bitset struct {
	words []uint64
	n     int
}

// New returns a Bitset holding n bits, all clear. n must be ≥ 0; New
// panics otherwise (capacity comes from validated geometry, so a negative
// size is a programming error).
func New(n int) *Bitset {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Bitset{words: make([]uint64, WordsFor(n)), n: n}
}

// FromWords returns a Bitset of n bits backed by words, which must be
// WordsFor(n) long and all zero; the set uses them in place, and Words
// gives them back. It lets a caller supply recycled storage.
func FromWords(words []uint64, n int) *Bitset {
	if n < 0 || len(words) != WordsFor(n) {
		panic("bitset: word count does not match size")
	}
	return &Bitset{words: words, n: n}
}

// WordsFor returns the number of 64-bit words a set of n bits occupies.
func WordsFor(n int) int { return (n + 63) >> 6 }

// Len returns the capacity in bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i. Out-of-range indices panic, matching slice semantics.
func (b *Bitset) Set(i int) {
	if i < 0 || i >= b.n {
		panic("bitset: index out of range")
	}
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i. Out-of-range indices panic.
func (b *Bitset) Clear(i int) {
	if i < 0 || i >= b.n {
		panic("bitset: index out of range")
	}
	b.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Get reports bit i. Out-of-range indices (including negative) report
// false rather than panicking: hot-path callers probe neighbor addresses
// that can fall one row outside the device, and the set semantics of "not
// a member" are what they mean.
func (b *Bitset) Get(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Reset clears every bit, keeping the allocation.
func (b *Bitset) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Words exposes the backing word slice for footprint accounting.
func (b *Bitset) Words() []uint64 { return b.words }

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}
