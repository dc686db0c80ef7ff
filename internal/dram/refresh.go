package dram

import (
	"fmt"

	"tivapromi/internal/rng"
)

// RefreshPolicy decides which physical rows an auto-refresh interval
// restores. Over one full window (RefInt intervals) every policy must
// refresh every row exactly once; PolicyPartitions verifies this and the
// Device checks it lazily in debug builds of the tests.
//
// TiVaPRoMi assumes policy (i): interval i refreshes rows
// [i*RowsPI, (i+1)*RowsPI). Section IV evaluates three alternatives to show
// the technique does not depend on the assumption.
type RefreshPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// RowsFor returns the physical rows refreshed in in-window interval
	// `interval` of window `window`. The returned slice is only valid
	// until the next call.
	RowsFor(window, interval int) []int
}

// NeighborPolicy is the paper's assumed policy: each interval refreshes a
// contiguous block of row addresses.
type NeighborPolicy struct {
	rowsPI int
	buf    []int
}

// NewNeighborPolicy returns the contiguous-block refresh policy for the
// given parameters.
func NewNeighborPolicy(p Params) *NeighborPolicy {
	return &NeighborPolicy{rowsPI: p.RowsPerInterval(), buf: make([]int, p.RowsPerInterval())}
}

// Name implements RefreshPolicy.
func (n *NeighborPolicy) Name() string { return "neighbors" }

// RowsFor implements RefreshPolicy.
func (n *NeighborPolicy) RowsFor(_, interval int) []int {
	base := interval * n.rowsPI
	for i := range n.buf {
		n.buf[i] = base + i
	}
	return n.buf
}

// RemappedPolicy refreshes contiguous blocks, but a configurable set of
// rows has been remapped (as when defective rows are replaced by spares),
// so a few addresses are refreshed out of their nominal interval. This is
// policy (ii) of Section IV.
type RemappedPolicy struct {
	inner NeighborPolicy
	remap map[int]int // nominal physical row -> actual physical row
	buf   []int
}

// NewRemappedPolicy builds a remapped policy with `swaps` pseudo-random
// pairs of rows exchanged, deterministic in seed.
func NewRemappedPolicy(p Params, swaps int, seed uint64) *RemappedPolicy {
	src := rng.NewXorShift64Star(seed ^ 0x5ee0)
	remap := make(map[int]int, 2*swaps)
	for i := 0; i < swaps; i++ {
		a := rng.Intn(src, p.RowsPerBank)
		b := rng.Intn(src, p.RowsPerBank)
		if a == b {
			continue
		}
		if _, ok := remap[a]; ok {
			continue
		}
		if _, ok := remap[b]; ok {
			continue
		}
		remap[a], remap[b] = b, a
	}
	return &RemappedPolicy{
		inner: *NewNeighborPolicy(p),
		remap: remap,
		buf:   make([]int, p.RowsPerInterval()),
	}
}

// Name implements RefreshPolicy.
func (r *RemappedPolicy) Name() string { return "neighbors-remapped" }

// RowsFor implements RefreshPolicy.
func (r *RemappedPolicy) RowsFor(window, interval int) []int {
	rows := r.inner.RowsFor(window, interval)
	for i, row := range rows {
		if to, ok := r.remap[row]; ok {
			r.buf[i] = to
		} else {
			r.buf[i] = row
		}
	}
	return r.buf
}

// RandomPolicy refreshes a fresh pseudo-random permutation of all rows each
// window, RowsPI at a time. This is policy (iii) of Section IV.
type RandomPolicy struct {
	p      Params
	seed   uint64
	window int
	perm   []int
}

// NewRandomPolicy returns the random-permutation refresh policy.
func NewRandomPolicy(p Params, seed uint64) *RandomPolicy {
	return &RandomPolicy{p: p, seed: seed, window: -1}
}

// Name implements RefreshPolicy.
func (r *RandomPolicy) Name() string { return "random" }

// RowsFor implements RefreshPolicy.
func (r *RandomPolicy) RowsFor(window, interval int) []int {
	if window != r.window {
		// Shuffle in place: the previous window's rows are dead once the
		// window moves on (RowsFor results are valid only until the next
		// call), so one permutation buffer serves the whole run.
		if r.perm == nil {
			r.perm = make([]int, r.p.RowsPerBank)
		}
		rng.PermInto(rng.NewXorShift64Star(r.seed+uint64(window)*0x9e37), r.perm)
		r.window = window
	}
	rpi := r.p.RowsPerInterval()
	return r.perm[interval*rpi : (interval+1)*rpi]
}

// MaskedCounterPolicy refreshes the block whose index is the interval
// counter XORed with a fixed mask — a hardware-friendly non-sequential
// order. This is policy (iv) of Section IV.
type MaskedCounterPolicy struct {
	p    Params
	mask int
	buf  []int
}

// NewMaskedCounterPolicy returns the counter-with-mask policy. The mask is
// reduced modulo RefInt so any value is safe.
func NewMaskedCounterPolicy(p Params, mask int) *MaskedCounterPolicy {
	return &MaskedCounterPolicy{
		p:    p,
		mask: mask & (p.RefInt - 1),
		buf:  make([]int, p.RowsPerInterval()),
	}
}

// Name implements RefreshPolicy.
func (m *MaskedCounterPolicy) Name() string { return "counter+mask" }

// RowsFor implements RefreshPolicy.
func (m *MaskedCounterPolicy) RowsFor(_, interval int) []int {
	block := (interval ^ m.mask) % m.p.RefInt
	base := block * m.p.RowsPerInterval()
	for i := range m.buf {
		m.buf[i] = base + i
	}
	return m.buf
}

// PolicyPartitions checks that the policy refreshes every row exactly once
// over the given window. It is used by tests and by the harness's self
// check at startup.
func PolicyPartitions(p Params, pol RefreshPolicy, window int) error {
	seen := make([]bool, p.RowsPerBank)
	for i := 0; i < p.RefInt; i++ {
		for _, r := range pol.RowsFor(window, i) {
			if r < 0 || r >= p.RowsPerBank {
				return fmt.Errorf("dram: policy %s interval %d row %d out of range", pol.Name(), i, r)
			}
			if seen[r] {
				return fmt.Errorf("dram: policy %s refreshes row %d twice in window %d", pol.Name(), r, window)
			}
			seen[r] = true
		}
	}
	for r, ok := range seen {
		if !ok {
			return fmt.Errorf("dram: policy %s misses row %d in window %d", pol.Name(), r, window)
		}
	}
	return nil
}
