// Package rng provides the deterministic pseudo-random number generators
// used throughout the simulator.
//
// Row-Hammer mitigations are hardware blocks: their probabilistic decisions
// are driven by small linear-feedback shift registers or xorshift-style
// generators, and probabilities are compared in fixed point (the paper's
// base probability is Pbase = 2^-23, so a decision is "draw 23 random bits,
// trigger iff they are below the weight"). This package mirrors that model
// so simulation results are bit-reproducible from a seed.
package rng

// Source is a deterministic stream of uniform 64-bit values. All generators
// in this package implement it.
type Source interface {
	// Uint64 returns the next value of the stream.
	Uint64() uint64
	// Seed resets the stream. Seeding with the same value reproduces the
	// same stream. A zero seed is remapped internally so that generators
	// whose all-zero state is absorbing still work.
	Seed(seed uint64)
}

// splitMix64 advances z and returns the next SplitMix64 output. It is used
// to whiten seeds for the other generators so that similar seeds (1, 2, 3…)
// still produce uncorrelated streams.
func splitMix64(z *uint64) uint64 {
	*z += 0x9e3779b97f4a7c15
	x := *z
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// XorShift64Star is a fast, well-distributed 64-bit generator
// (Vigna, "An experimental exploration of Marsaglia's xorshift generators").
// It is the default software-side generator of the simulator.
type XorShift64Star struct {
	state uint64
}

// NewXorShift64Star returns a generator seeded with seed.
func NewXorShift64Star(seed uint64) *XorShift64Star {
	g := &XorShift64Star{}
	g.Seed(seed)
	return g
}

// Seed implements Source.
func (g *XorShift64Star) Seed(seed uint64) {
	z := seed
	g.state = splitMix64(&z)
	if g.state == 0 {
		g.state = 0x2545f4914f6cdd1d // any non-zero constant
	}
}

// Uint64 implements Source.
func (g *XorShift64Star) Uint64() uint64 {
	x := g.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	g.state = x
	return x * 0x2545f4914f6cdd1d
}

// LFSR32 is a 32-bit Fibonacci linear-feedback shift register with taps
// 32,22,2,1 (a maximum-length polynomial). It models the cheap PRNG a
// memory-controller extension would synthesize: one flop per bit plus a
// handful of XOR gates.
type LFSR32 struct {
	state uint32
}

// NewLFSR32 returns an LFSR seeded with seed.
func NewLFSR32(seed uint64) *LFSR32 {
	l := &LFSR32{}
	l.Seed(seed)
	return l
}

// Seed implements Source.
func (l *LFSR32) Seed(seed uint64) {
	z := seed
	l.state = uint32(splitMix64(&z))
	if l.state == 0 {
		l.state = 0xace1ace1
	}
}

// lfsrJump32 holds the precomputed 32-step jump transform of the LFSR.
// One register step is linear over GF(2), so 32 consecutive steps are one
// 32×32 boolean matrix; splitting the state into four bytes turns the
// matrix product into four table lookups and three XORs. The tables are
// built once at init from the serial stepper itself, so the accelerated
// stream is the serial stream by construction (and pinned by tests).
var lfsrJump32 [4][256]uint32

func init() {
	for k := 0; k < 4; k++ {
		for v := 1; v < 256; v++ {
			lfsrJump32[k][v] = lfsrAdvance32Serial(uint32(v) << (8 * k))
		}
	}
}

// lfsrAdvance32Serial runs 32 serial steps functionally (no receiver
// state), used to build the jump tables and by the serial reference.
func lfsrAdvance32Serial(s uint32) uint32 {
	for i := 0; i < 32; i++ {
		bit := (s ^ (s >> 10) ^ (s >> 30) ^ (s >> 31)) & 1
		s = (s >> 1) | (bit << 31)
	}
	return s
}

// Uint32 advances the register a full word and returns it. The stream is
// bit-identical to 32 serial step() calls (see lfsrJump32); the hardware
// shifts serially, the simulator jumps 32 steps with four table lookups.
func (l *LFSR32) Uint32() uint32 {
	s := l.state
	s = lfsrJump32[0][s&0xff] ^
		lfsrJump32[1][(s>>8)&0xff] ^
		lfsrJump32[2][(s>>16)&0xff] ^
		lfsrJump32[3][s>>24]
	l.state = s
	return s
}

// Uint64 implements Source by concatenating two 32-bit words.
func (l *LFSR32) Uint64() uint64 {
	hi := uint64(l.Uint32())
	return hi<<32 | uint64(l.Uint32())
}

// SerialLFSR32 is the bit-by-bit reference implementation of LFSR32: the
// same polynomial, the same stream, advanced one flop-shift at a time as
// the synthesized hardware would. It exists for two jobs — pinning the
// jump-table acceleration of LFSR32 in tests, and serving as the "before"
// entropy path in hot-path benchmarks (install it with
// mitigation.RandSettable to measure a technique against the unaccelerated
// generator).
type SerialLFSR32 struct {
	state uint32
}

// NewSerialLFSR32 returns a serial-reference LFSR seeded with seed.
func NewSerialLFSR32(seed uint64) *SerialLFSR32 {
	l := &SerialLFSR32{}
	l.Seed(seed)
	return l
}

// Seed implements Source with the exact seeding of LFSR32.
func (l *SerialLFSR32) Seed(seed uint64) {
	z := seed
	l.state = uint32(splitMix64(&z))
	if l.state == 0 {
		l.state = 0xace1ace1
	}
}

// Uint32 advances the register 32 single-bit steps and returns it.
func (l *SerialLFSR32) Uint32() uint32 {
	l.state = lfsrAdvance32Serial(l.state)
	return l.state
}

// Uint64 implements Source by concatenating two 32-bit words.
func (l *SerialLFSR32) Uint64() uint64 {
	hi := uint64(l.Uint32())
	return hi<<32 | uint64(l.Uint32())
}

// Bernoulli draws fixed-point probabilistic decisions from a Source.
//
// A Bernoulli with Bits=23 models the paper's decision logic: probabilities
// are integer multiples of Pbase = 2^-23, and a decision with weight w
// (probability w*Pbase) is taken by comparing w against 23 fresh random
// bits.
type Bernoulli struct {
	src  Source
	s32  interface{ Uint32() uint32 } // non-nil when src serves 32-bit draws and bits ≤ 32
	bits uint                         // fixed-point resolution in bits, 1..63
	mask uint64
}

// NewBernoulli returns a Bernoulli decision maker with the given fixed-point
// resolution. bits must be in [1, 63]; it panics otherwise because the
// resolution is a static hardware parameter, not runtime input.
//
// When the source offers a native Uint32 (the LFSRs do) and the resolution
// fits in 32 bits, each decision consumes one 32-bit word instead of two:
// the paper's comparator reads `bits` fresh register bits per decision, and
// a 32-bit draw already provides them — clocking the register a second
// word per decision modeled nothing.
func NewBernoulli(src Source, bits uint) *Bernoulli {
	if bits < 1 || bits > 63 {
		panic("rng: Bernoulli resolution out of range [1,63]")
	}
	b := &Bernoulli{src: src, bits: bits, mask: (1 << bits) - 1}
	if s32, ok := src.(interface{ Uint32() uint32 }); ok && bits <= 32 {
		b.s32 = s32
	}
	return b
}

// Bits returns the fixed-point resolution.
func (b *Bernoulli) Bits() uint { return b.bits }

// Trigger returns true with probability min(1, weight * 2^-bits).
// A weight of 0 never triggers; a weight of 2^bits or more always triggers.
func (b *Bernoulli) Trigger(weight uint64) bool {
	if weight == 0 {
		return false
	}
	if weight > b.mask {
		return true
	}
	if b.s32 != nil {
		return uint64(b.s32.Uint32())&b.mask < weight
	}
	return b.src.Uint64()&b.mask < weight
}

// Float64 returns a uniform value in [0, 1) from src. It is a convenience
// for software-side components (workload generation); hardware-side
// decisions should use Bernoulli.
func Float64(src Source) float64 {
	return float64(src.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n) from src. It panics if n <= 0.
//
// For bounds that fit in 32 bits the reduction is a multiply-shift of the
// draw's high word — scale the fraction x/2^32 by n — instead of a modulo,
// keeping the 64-bit division off the trace-generation hot path (the
// residual non-uniformity is at most n/2^32, invisible next to the
// generator's own statistical noise). For n a power of two this selects
// the top bits of the draw, so Intn(src, 16) is exactly src.Uint64()>>60.
func Intn(src Source, n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	if n <= 1<<31 {
		return int((src.Uint64() >> 32) * uint64(n) >> 32)
	}
	return int(src.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of [0, n) using the
// Fisher-Yates shuffle.
func Perm(src Source, n int) []int {
	p := make([]int, n)
	PermInto(src, p)
	return p
}

// PermInto fills p with a pseudo-random permutation of [0, len(p)),
// drawing exactly what Perm(src, len(p)) draws, so both produce the same
// permutation. It lets a caller reuse one buffer across permutations.
func PermInto(src Source, p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := Intn(src, i+1)
		p[i], p[j] = p[j], p[i]
	}
}
