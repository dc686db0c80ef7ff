package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestXorShiftDeterminism(t *testing.T) {
	a := NewXorShift64Star(42)
	b := NewXorShift64Star(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestXorShiftSeedIndependence(t *testing.T) {
	a := NewXorShift64Star(1)
	b := NewXorShift64Star(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("nearby seeds produced %d identical outputs; seeds are not whitened", same)
	}
}

func TestXorShiftZeroSeed(t *testing.T) {
	g := NewXorShift64Star(0)
	if g.Uint64() == 0 && g.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck all-zero stream")
	}
}

func TestLFSRZeroSeedRemapped(t *testing.T) {
	l := NewLFSR32(0)
	if l.Uint32() == 0 && l.Uint32() == 0 {
		t.Fatal("zero seed left LFSR in absorbing state")
	}
}

func TestLFSRPeriodNotTiny(t *testing.T) {
	l := NewLFSR32(7)
	first := l.Uint32()
	for i := 0; i < 10000; i++ {
		if l.Uint32() == first {
			// Revisiting one value is fine (32-bit outputs collide);
			// verify the following value differs from the second output.
			break
		}
	}
	// Statistical smoke test: mean of many outputs should be near 2^31.
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(l.Uint32())
	}
	mean := sum / n
	if mean < float64(1<<31)*0.9 || mean > float64(1<<31)*1.1 {
		t.Fatalf("LFSR output mean %.0f suspiciously far from 2^31", mean)
	}
}

func TestBernoulliZeroWeightNeverTriggers(t *testing.T) {
	b := NewBernoulli(NewXorShift64Star(1), 23)
	for i := 0; i < 10000; i++ {
		if b.Trigger(0) {
			t.Fatal("weight 0 triggered")
		}
	}
}

func TestBernoulliSaturatedWeightAlwaysTriggers(t *testing.T) {
	b := NewBernoulli(NewXorShift64Star(1), 23)
	for i := 0; i < 10000; i++ {
		if !b.Trigger(1 << 23) {
			t.Fatal("saturated weight failed to trigger")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	// weight w at 23 bits should trigger with rate w * 2^-23.
	b := NewBernoulli(NewXorShift64Star(99), 23)
	const w = 1 << 13 // p = 2^-10
	const n = 4 << 20
	hits := 0
	for i := 0; i < n; i++ {
		if b.Trigger(w) {
			hits++
		}
	}
	want := float64(n) * float64(w) / float64(1<<23)
	got := float64(hits)
	// 4-sigma binomial bound.
	sigma := math.Sqrt(want)
	if math.Abs(got-want) > 4*sigma {
		t.Fatalf("trigger count %v, want %v ± %v", got, want, 4*sigma)
	}
}

func TestBernoulliResolutionBounds(t *testing.T) {
	for _, bits := range []uint{0, 64, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBernoulli(%d) did not panic", bits)
				}
			}()
			NewBernoulli(NewXorShift64Star(1), bits)
		}()
	}
}

func TestFloat64Range(t *testing.T) {
	g := NewXorShift64Star(3)
	for i := 0; i < 100000; i++ {
		f := Float64(g)
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestIntnRangeProperty(t *testing.T) {
	g := NewXorShift64Star(5)
	f := func(n uint16) bool {
		bound := int(n%1000) + 1
		v := Intn(g, bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	Intn(NewXorShift64Star(1), 0)
}

func TestPermIsPermutationProperty(t *testing.T) {
	g := NewXorShift64Star(11)
	f := func(n uint8) bool {
		size := int(n % 64)
		p := Perm(g, size)
		if len(p) != size {
			return false
		}
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPermIntoMatchesPerm: PermInto draws what Perm draws, whatever the
// buffer held before.
func TestPermIntoMatchesPerm(t *testing.T) {
	buf := make([]int, 97)
	for seed := uint64(1); seed < 6; seed++ {
		for i := range buf {
			buf[i] = -i * int(seed)
		}
		want := Perm(NewXorShift64Star(seed), len(buf))
		PermInto(NewXorShift64Star(seed), buf)
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("seed %d: entry %d = %d, want %d", seed, i, buf[i], want[i])
			}
		}
	}
}

func TestPermUniformityShuffle(t *testing.T) {
	// Position of element 0 across many shuffles of 4 elements should be
	// roughly uniform.
	g := NewXorShift64Star(13)
	counts := make([]int, 4)
	const n = 40000
	for i := 0; i < n; i++ {
		p := Perm(g, 4)
		for pos, v := range p {
			if v == 0 {
				counts[pos]++
			}
		}
	}
	for pos, c := range counts {
		if c < n/4-1500 || c > n/4+1500 {
			t.Fatalf("element 0 at position %d occurred %d times, want ≈%d", pos, c, n/4)
		}
	}
}

func BenchmarkXorShift64Star(b *testing.B) {
	g := NewXorShift64Star(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = g.Uint64()
	}
	_ = sink
}

func BenchmarkBernoulli23(b *testing.B) {
	bn := NewBernoulli(NewXorShift64Star(1), 23)
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = bn.Trigger(4096)
	}
	_ = sink
}

// TestLFSRJumpTableMatchesSerial pins the hot-path acceleration: the
// jump-table LFSR32 must emit the exact bit stream of the serial,
// flop-by-flop reference across seeds (including the remapped zero seed)
// and for long runs.
func TestLFSRJumpTableMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2, 42, 0xdeadbeef, ^uint64(0)} {
		fast := NewLFSR32(seed)
		ref := NewSerialLFSR32(seed)
		for i := 0; i < 4096; i++ {
			if f, r := fast.Uint64(), ref.Uint64(); f != r {
				t.Fatalf("seed %#x: streams diverged at draw %d: fast %#x serial %#x", seed, i, f, r)
			}
		}
		// Reseeding mid-stream must resynchronize both.
		fast.Seed(seed ^ 0x5a5a)
		ref.Seed(seed ^ 0x5a5a)
		if f, r := fast.Uint32(), ref.Uint32(); f != r {
			t.Fatalf("seed %#x: streams diverged after reseed: fast %#x serial %#x", seed, f, r)
		}
	}
}

func BenchmarkLFSR32Uint64(b *testing.B) {
	l := NewLFSR32(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += l.Uint64()
	}
	_ = sink
}

func BenchmarkSerialLFSR32Uint64(b *testing.B) {
	l := NewSerialLFSR32(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += l.Uint64()
	}
	_ = sink
}
