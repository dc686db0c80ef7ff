package dram

import (
	"testing"

	"tivapromi/internal/rng"
)

func policies(p Params) []RefreshPolicy {
	return []RefreshPolicy{
		NewNeighborPolicy(p),
		NewRemappedPolicy(p, 8, 1),
		NewRandomPolicy(p, 1),
		NewMaskedCounterPolicy(p, 0b101),
	}
}

func TestAllPoliciesPartitionWindow(t *testing.T) {
	p := testParams()
	for _, pol := range policies(p) {
		for window := 0; window < 3; window++ {
			if err := PolicyPartitions(p, pol, window); err != nil {
				t.Errorf("%v", err)
			}
		}
	}
}

func TestNeighborPolicyIsContiguous(t *testing.T) {
	p := testParams()
	pol := NewNeighborPolicy(p)
	rows := pol.RowsFor(0, 3)
	for i, r := range rows {
		if r != 3*p.RowsPerInterval()+i {
			t.Fatalf("interval 3 rows = %v", rows)
		}
	}
}

func TestRemappedPolicyDiffersButPartitions(t *testing.T) {
	p := testParams()
	base := NewNeighborPolicy(p)
	rem := NewRemappedPolicy(p, 16, 42)
	diff := 0
	for i := 0; i < p.RefInt; i++ {
		b := append([]int(nil), base.RowsFor(0, i)...)
		r := rem.RowsFor(0, i)
		for j := range b {
			if b[j] != r[j] {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("remapped policy identical to neighbor policy")
	}
}

func TestRandomPolicyChangesAcrossWindows(t *testing.T) {
	p := testParams()
	pol := NewRandomPolicy(p, 7)
	w0 := append([]int(nil), pol.RowsFor(0, 0)...)
	w1 := pol.RowsFor(1, 0)
	same := true
	for i := range w0 {
		if w0[i] != w1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("random policy repeated the permutation across windows")
	}
}

// TestRandomPolicyShufflesInPlace: every window's order is the
// permutation rng.Perm draws from the window's seed, and moving to a new
// window reuses the policy's buffer instead of allocating another.
func TestRandomPolicyShufflesInPlace(t *testing.T) {
	p := testParams()
	pol := NewRandomPolicy(p, 7)
	rpi := p.RowsPerInterval()
	for w := 0; w < 4; w++ {
		want := rng.Perm(rng.NewXorShift64Star(7+uint64(w)*0x9e37), p.RowsPerBank)
		for iv := 0; iv < p.RefInt; iv++ {
			got := pol.RowsFor(w, iv)
			for k, r := range got {
				if r != want[iv*rpi+k] {
					t.Fatalf("window %d interval %d: row %d = %d, want %d", w, iv, k, r, want[iv*rpi+k])
				}
			}
		}
	}
	w := 4
	allocs := testing.AllocsPerRun(10, func() {
		pol.RowsFor(w, 0)
		w++
	})
	// The per-window generator is the only allocation left.
	if allocs > 1 {
		t.Fatalf("a window change allocates %.0f times, want at most 1", allocs)
	}
}

func TestRandomPolicyDeterministicInSeed(t *testing.T) {
	p := testParams()
	a := NewRandomPolicy(p, 9)
	b := NewRandomPolicy(p, 9)
	ra := a.RowsFor(5, 10)
	rb := b.RowsFor(5, 10)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("same seed produced different refresh order")
		}
	}
}

func TestMaskedCounterPolicyXORs(t *testing.T) {
	p := testParams()
	pol := NewMaskedCounterPolicy(p, 1)
	// With mask 1, interval 0 refreshes block 1 and interval 1 block 0.
	r0 := append([]int(nil), pol.RowsFor(0, 0)...)
	if r0[0] != p.RowsPerInterval() {
		t.Fatalf("interval 0 starts at %d, want %d", r0[0], p.RowsPerInterval())
	}
	r1 := pol.RowsFor(0, 1)
	if r1[0] != 0 {
		t.Fatalf("interval 1 starts at %d, want 0", r1[0])
	}
}

func TestMaskedCounterPolicyMaskWraps(t *testing.T) {
	p := testParams()
	// A mask larger than RefInt must be reduced, not break the partition.
	pol := NewMaskedCounterPolicy(p, p.RefInt*3+5)
	if err := PolicyPartitions(p, pol, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyNames(t *testing.T) {
	p := testParams()
	want := map[string]bool{
		"neighbors": true, "neighbors-remapped": true,
		"random": true, "counter+mask": true,
	}
	for _, pol := range policies(p) {
		if !want[pol.Name()] {
			t.Errorf("unexpected policy name %q", pol.Name())
		}
	}
}

func TestPolicyPartitionsDetectsViolations(t *testing.T) {
	p := testParams()
	if err := PolicyPartitions(p, brokenPolicy{p}, 0); err == nil {
		t.Fatal("broken policy accepted")
	}
}

// brokenPolicy refreshes row 0 every interval.
type brokenPolicy struct{ p Params }

func (b brokenPolicy) Name() string { return "broken" }
func (b brokenPolicy) RowsFor(_, _ int) []int {
	rows := make([]int, b.p.RowsPerInterval())
	return rows
}
