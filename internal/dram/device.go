package dram

import (
	"fmt"

	"tivapromi/internal/bitset"
	"tivapromi/internal/rowpool"
)

// FlipEvent records a victim row crossing the disturbance threshold — a
// successful Row-Hammer attack.
type FlipEvent struct {
	Bank     int
	Row      int // physical row
	Window   int // refresh window in which the flip occurred
	Interval int // global refresh-interval index at the time of the flip
}

// defaultFlipEventCap bounds how many FlipEvents a device retains. The
// flip *count* (Stats.Flips, FlipCount) is always exact; the event list
// is a prefix sample for reports and replay checks. An unmitigated
// billion-activation run on a full DIMM produces millions of crossings —
// retaining one struct per crossing is exactly the per-sample
// accumulation the streaming-state refactor removes. 65536 events is far
// above what any committed experiment produces, so their event lists are
// complete and byte-identical.
const defaultFlipEventCap = 1 << 16

// Stats aggregates device activity.
type Stats struct {
	Activates        uint64 // normal row activations (workload + attacker)
	NeighborActs     uint64 // activations issued by act_n commands
	DirectRefreshes  uint64 // mitigation-issued single-row refreshes
	AutoRefreshes    uint64 // rows restored by auto-refresh
	Intervals        uint64 // refresh intervals elapsed
	Flips            uint64 // threshold crossings
	MaxActsInIntv    uint64 // max activations observed in one bank-interval
	IntervalActsSum  uint64 // sum over bank-intervals of activation counts
	IntervalActsSeen uint64 // number of bank-intervals counted
}

// AvgActsPerInterval returns the mean activations per bank per refresh
// interval, the quantity the paper reports as ≈40 for its traces.
func (s Stats) AvgActsPerInterval() float64 {
	if s.IntervalActsSeen == 0 {
		return 0
	}
	return float64(s.IntervalActsSum) / float64(s.IntervalActsSeen)
}

// Device is the simulated DRAM. It is not safe for concurrent use; the
// experiment harness runs one Device per goroutine.
//
// Per-row state lives in one of two representations, chosen by
// Params.State (StateAuto: by population size): dense flat arrays — the
// original layout, fastest for small geometries — or lazily-paged sparse
// stores whose heap is O(touched rows), which is what makes full-DIMM
// populations (Ranks × BankGroups × Banks × 64K rows) simulable. Both
// representations produce bit-identical behavior; the sparse/dense
// property test in internal/sim pins it.
type Device struct {
	p     Params
	banks int // cached p.TotalBanks()

	policy RefreshPolicy

	// disturb[b][r] counts neighbor activations of physical row r in bank
	// b since r was last restored (refreshed or activated). Dense
	// representation; nil when sparse is selected.
	disturb [][]uint32
	// sp[b] is the paged equivalent of disturb[b]; nil when dense.
	sp []pagedU32

	// l2p maps logical row addresses (as seen by the controller and the
	// mitigations) to physical rows. nil means identity — the overwhelming
	// default — so unremapped devices pay no O(rows) allocation; it is
	// materialized by SetRowRemap.
	l2p []int32
	// intervalActs counts activations per bank within the current
	// refresh interval, for trace statistics.
	intervalActs []uint32

	interval int // global interval counter
	// flips retains up to flipCap FlipEvents (stats.Flips counts all).
	flips   []FlipEvent
	flipCap int
	// flipped marks rows already reported this window so a sustained
	// attack yields one event per victim per window, as one data-corrupting
	// flip would. Dense bitset over bank*RowsPerBank+prow for small
	// geometries, lazily-paged for large ones; flippedDirty lists the set
	// positions so the per-window clear is O(flips), not O(rows).
	flipped      *bitset.Bitset
	flippedP     *bitset.Paged
	flippedDirty []int64

	stats Stats

	// Observers, in event order (trace recording).
	onAct      func(bank, row int)
	onInterval func()

	// data is the optional sparse content store (see data.go).
	data *dataStore
}

// New creates a Device. A nil policy defaults to NewNeighborPolicy.
func New(p Params, policy RefreshPolicy) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if policy == nil {
		policy = NewNeighborPolicy(p)
	}
	banks := p.TotalBanks()
	d := &Device{
		p:            p,
		banks:        banks,
		policy:       policy,
		intervalActs: make([]uint32, banks),
		flipCap:      defaultFlipEventCap,
	}
	if p.Sparse() {
		d.sp = make([]pagedU32, banks)
		for b := range d.sp {
			d.sp[b] = newPagedU32(p.RowsPerBank)
		}
		d.flippedP = bitset.NewPaged(banks * p.RowsPerBank)
	} else {
		d.disturb = make([][]uint32, banks)
		for b := range d.disturb {
			d.disturb[b] = rowpool.Get[uint32](p.RowsPerBank)
		}
		n := banks * p.RowsPerBank
		d.flipped = bitset.FromWords(rowpool.Get[uint64](bitset.WordsFor(n)), n)
	}
	return d, nil
}

// Release hands the device's per-row tables — dense disturbance rows and
// flip-bitset words, or sparse disturbance pages — back to the row-table
// pool for the next device of the same geometry. Only the code that
// built the device may call it, after its last use of the device: the
// activity counters and flip events stay readable, but the device must
// not be activated, refreshed or probed again. A device that is never
// released is simply collected.
func (d *Device) Release() {
	for _, row := range d.disturb {
		rowpool.Put(row)
	}
	for b := range d.sp {
		d.sp[b].release()
	}
	if d.flipped != nil {
		rowpool.Put(d.flipped.Words())
	}
	d.disturb, d.sp, d.flipped = nil, nil, nil
}

// Params returns the device parameters.
func (d *Device) Params() Params { return d.p }

// Banks returns the total bank population (Ranks × BankGroups × Banks).
func (d *Device) Banks() int { return d.banks }

// Policy returns the refresh policy in use.
func (d *Device) Policy() RefreshPolicy { return d.policy }

// SetRowRemap installs a logical-to-physical row permutation, modeling
// spare-row replacement of defective rows. The slice must be a permutation
// of [0, RowsPerBank); it is validated and copied. Identity mapping is the
// implicit default and costs no memory.
func (d *Device) SetRowRemap(perm []int) error {
	if len(perm) != d.p.RowsPerBank {
		return fmt.Errorf("dram: remap length %d, want %d", len(perm), d.p.RowsPerBank)
	}
	seen := make([]bool, len(perm))
	for _, v := range perm {
		if v < 0 || v >= len(perm) || seen[v] {
			return fmt.Errorf("dram: remap is not a permutation")
		}
		seen[v] = true
	}
	if d.l2p == nil {
		d.l2p = make([]int32, d.p.RowsPerBank)
	}
	for i, v := range perm {
		d.l2p[i] = int32(v)
	}
	return nil
}

// physical resolves a logical row through the remap (identity when no
// remap was installed).
func (d *Device) physical(row int) int {
	if d.l2p == nil {
		return row
	}
	return int(d.l2p[row])
}

// Physical returns the physical row behind a logical row address.
func (d *Device) Physical(row int) int { return d.physical(row) }

// Interval returns the global refresh-interval counter.
func (d *Device) Interval() int { return d.interval }

// IntervalInWindow returns the current interval's index within its window.
func (d *Device) IntervalInWindow() int { return d.interval % d.p.RefInt }

// Window returns the current refresh-window index.
func (d *Device) Window() int { return d.interval / d.p.RefInt }

// Flips returns the recorded bit-flip events — the complete list up to
// the retention cap (SetFlipEventCap), a prefix sample beyond it. Use
// FlipCount for the exact total.
func (d *Device) Flips() []FlipEvent { return d.flips }

// FlipCount returns the exact number of threshold crossings recorded
// (one per victim per window), independent of event retention.
func (d *Device) FlipCount() uint64 { return d.stats.Flips }

// SetFlipEventCap bounds FlipEvent retention (n <= 0 restores the
// default). Counting is unaffected; only the event list is truncated.
func (d *Device) SetFlipEventCap(n int) {
	if n <= 0 {
		n = defaultFlipEventCap
	}
	d.flipCap = n
}

// Stats returns a copy of the activity counters.
func (d *Device) Stats() Stats { return d.stats }

// restore resets the disturbance of a physical row (its charge is
// restored by an activation or refresh). Restoring a row on an untouched
// sparse page is a no-op — it already reads as zero.
func (d *Device) restore(bank, prow int) {
	if d.disturb != nil {
		d.disturb[bank][prow] = 0
		return
	}
	d.sp[bank].zero(prow)
}

// disturbNeighbor bumps the disturbance counter of a physical row and
// records a flip when the threshold is crossed.
func (d *Device) disturbNeighbor(bank, prow int) {
	var c uint32
	if d.disturb != nil {
		c = d.disturb[bank][prow] + 1
		d.disturb[bank][prow] = c
	} else {
		pg := d.sp[bank].page(prow)
		c = pg[prow&pageMask] + 1
		pg[prow&pageMask] = c
	}
	if c >= d.p.FlipThreshold {
		d.recordFlip(bank, prow)
	}
}

// flipGet / flipSet / flipClear probe the per-window flip bookkeeping in
// whichever representation is live.
func (d *Device) flipGet(pos int) bool {
	if d.flipped != nil {
		return d.flipped.Get(pos)
	}
	return d.flippedP.Get(pos)
}

func (d *Device) flipSet(pos int) {
	if d.flipped != nil {
		d.flipped.Set(pos)
		return
	}
	d.flippedP.Set(pos)
}

func (d *Device) flipClear(pos int) {
	if d.flipped != nil {
		d.flipped.Clear(pos)
		return
	}
	d.flippedP.Clear(pos)
}

// recordFlip handles a threshold crossing: one FlipEvent per victim per
// window (the flipped bitset dedupes sustained hammering). It is the cold
// half of the disturbance path — counters keep incrementing past the
// threshold, but this is only reached once the attack has succeeded.
func (d *Device) recordFlip(bank, prow int) {
	pos := bank*d.p.RowsPerBank + prow
	if !d.flipGet(pos) {
		d.flipSet(pos)
		d.flippedDirty = append(d.flippedDirty, int64(pos))
		d.stats.Flips++
		if len(d.flips) < d.flipCap {
			d.flips = append(d.flips, FlipEvent{
				Bank: bank, Row: prow,
				Window: d.Window(), Interval: d.interval,
			})
		}
		if d.data != nil {
			d.data.corrupt(bank, prow, d.Window())
		}
	}
}

// activatePhysical performs the electrical work of an activation of a
// physical row: restore the row itself, disturb both physical neighbors.
// The dense branch keeps the seed's layout — counter updates written out
// inline with the bank's column and the threshold hoisted into locals,
// because this runs once per activation and re-deriving the two-level
// slice index per neighbor showed up in the pipeline profile. The sparse
// branch pays one page probe per touched row; the self-restore of a row
// on an untouched page allocates nothing.
func (d *Device) activatePhysical(bank, prow int) {
	thr := d.p.FlipThreshold
	if col := d.disturb; col != nil {
		c0 := col[bank]
		c0[prow] = 0
		if prow > 0 {
			c := c0[prow-1] + 1
			c0[prow-1] = c
			if c >= thr {
				d.recordFlip(bank, prow-1)
			}
		}
		if prow < len(c0)-1 {
			c := c0[prow+1] + 1
			c0[prow+1] = c
			if c >= thr {
				d.recordFlip(bank, prow+1)
			}
		}
		return
	}
	s := &d.sp[bank]
	s.zero(prow)
	if prow > 0 {
		pg := s.page(prow - 1)
		c := pg[(prow-1)&pageMask] + 1
		pg[(prow-1)&pageMask] = c
		if c >= thr {
			d.recordFlip(bank, prow-1)
		}
	}
	if prow < d.p.RowsPerBank-1 {
		pg := s.page(prow + 1)
		c := pg[(prow+1)&pageMask] + 1
		pg[(prow+1)&pageMask] = c
		if c >= thr {
			d.recordFlip(bank, prow+1)
		}
	}
}

// SetObserver registers callbacks invoked on every normal activation and
// on every interval advance, in event order — exactly the act/ref command
// stream a mitigation observes. The trace recorder uses this. Either
// callback may be nil.
func (d *Device) SetObserver(onAct func(bank, row int), onInterval func()) {
	d.onAct = onAct
	d.onInterval = onInterval
}

// Activate performs a normal activation of a logical row, as issued by the
// memory controller for a read or write.
func (d *Device) Activate(bank, row int) {
	d.checkAddr(bank, row)
	d.stats.Activates++
	d.intervalActs[bank]++
	if d.onAct != nil {
		d.onAct(bank, row)
	}
	d.activatePhysical(bank, d.physical(row))
}

// ActivateNeighbors executes the act_n maintenance command: the device
// activates both physical neighbors of the given logical row, using its
// internal mapping (Fig. 1: "the addresses of the two neighbors are not
// passed directly, because they depend on the internal mapping").
func (d *Device) ActivateNeighbors(bank, row int) {
	d.checkAddr(bank, row)
	prow := d.physical(row)
	if prow > 0 {
		d.stats.NeighborActs++
		d.activatePhysical(bank, prow-1)
	}
	if prow < d.p.RowsPerBank-1 {
		d.stats.NeighborActs++
		d.activatePhysical(bank, prow+1)
	}
}

// ActivateNeighbor executes a one-sided variant of act_n: the device
// activates the physical neighbor on the given side (-1 or +1) of the
// logical row, resolving the internal mapping. PARA-style mitigations use
// it to refresh one randomly chosen neighbor per trigger.
func (d *Device) ActivateNeighbor(bank, row, side int) {
	d.checkAddr(bank, row)
	if side != -1 && side != 1 {
		panic(fmt.Sprintf("dram: ActivateNeighbor side must be ±1, got %d", side))
	}
	prow := d.physical(row) + side
	if prow < 0 || prow >= d.p.RowsPerBank {
		return // edge row: no neighbor on that side
	}
	d.stats.NeighborActs++
	d.activatePhysical(bank, prow)
}

// RefreshRow executes a mitigation-issued refresh of one logical row (the
// style of command ProHit and MRLoc use, which addresses the victim row
// directly by its logical N±1 address). Unlike act_n it does not consult
// the neighbor mapping beyond the row's own remap entry, so under spare-row
// remapping it can restore the wrong physical row — the weakness the paper
// notes for those schemes.
func (d *Device) RefreshRow(bank, row int) {
	d.checkAddr(bank, row)
	d.stats.DirectRefreshes++
	d.activatePhysical(bank, d.physical(row))
}

// AdvanceInterval performs the auto-refresh work of the current refresh
// interval on every bank and advances the interval counter. It returns the
// physical rows that were refreshed (shared by all banks).
func (d *Device) AdvanceInterval() []int {
	if d.onInterval != nil {
		d.onInterval()
	}
	win, iv := d.Window(), d.IntervalInWindow()
	rows := d.policy.RowsFor(win, iv)
	for b := 0; b < d.banks; b++ {
		for _, r := range rows {
			d.restore(b, r)
		}
		// Interval statistics.
		a := uint64(d.intervalActs[b])
		if a > d.stats.MaxActsInIntv {
			d.stats.MaxActsInIntv = a
		}
		d.stats.IntervalActsSum += a
		d.stats.IntervalActsSeen++
		d.intervalActs[b] = 0
	}
	d.stats.AutoRefreshes += uint64(len(rows) * d.banks)
	d.stats.Intervals++
	d.interval++
	if d.interval%d.p.RefInt == 0 {
		// New window: victims refreshed, flip bookkeeping restarts. Only
		// the positions actually set are cleared.
		for _, pos := range d.flippedDirty {
			d.flipClear(int(pos))
		}
		d.flippedDirty = d.flippedDirty[:0]
	}
	return rows
}

// Disturbance returns the current disturbance count of a physical row,
// for tests and white-box experiments.
func (d *Device) Disturbance(bank, prow int) uint32 {
	if d.disturb != nil {
		return d.disturb[bank][prow]
	}
	return d.sp[bank].get(prow)
}

// InjectDisturbance adds n disturbance counts to a physical row without
// an activation, modeling retention-weakened cells (a weak cell reaches
// the flip threshold with fewer real hammering activations). Threshold
// crossings are recorded exactly like activation-induced ones, so a
// mitigation provisioned for the nominal threshold is measurably stressed.
// It is a fault-injection entry point; normal simulation never calls it.
func (d *Device) InjectDisturbance(bank, prow int, n uint32) {
	if bank < 0 || bank >= d.banks || prow < 0 || prow >= d.p.RowsPerBank || n == 0 {
		return
	}
	// Apply in one step but reuse the flip bookkeeping of a single
	// disturbance for the threshold crossing.
	if c := d.Disturbance(bank, prow); n > 1 && c+n-1 > c { // guard overflow
		if d.disturb != nil {
			d.disturb[bank][prow] = c + n - 1
		} else {
			d.sp[bank].set(prow, c+n-1)
		}
	}
	d.disturbNeighbor(bank, prow)
}

// TouchedRows returns the row population currently backed by allocated
// state: the whole population for a dense device, the rows of touched
// pages for a sparse one. The scale gate asserts heap against this.
func (d *Device) TouchedRows() int {
	if d.disturb != nil {
		return d.banks * d.p.RowsPerBank
	}
	pages := 0
	for b := range d.sp {
		pages += d.sp[b].touchedPages()
	}
	return pages * pageRows
}

// StateBytes returns the approximate heap footprint of the device's
// per-row state: disturbance counters, flip bookkeeping, the row remap
// and the data-store index. It counts allocated pages only, so for a
// sparse device it is O(touched rows).
func (d *Device) StateBytes() int {
	n := len(d.intervalActs) * 4
	if d.disturb != nil {
		n += d.banks * d.p.RowsPerBank * 4
		n += len(d.flipped.Words()) * 8
	} else {
		for b := range d.sp {
			n += len(d.sp[b].pages) * 24 // page table (slice headers)
			n += d.sp[b].touchedPages() * pageRows * 4
		}
		n += d.flippedP.Bytes()
	}
	if d.l2p != nil {
		n += len(d.l2p) * 4
	}
	n += len(d.flippedDirty) * 8
	n += len(d.flips) * 32
	if d.data != nil {
		n += d.data.stateBytes()
	}
	return n
}

// DenseStateBytes returns what the dense per-row layout would allocate
// for the given parameters (disturbance counters + flip bitset), the
// baseline the scale gate compares sparse heap against.
func DenseStateBytes(p Params) int {
	rows := p.TotalRows()
	return rows*4 + rows/8
}

func (d *Device) checkAddr(bank, row int) {
	if bank < 0 || bank >= d.banks || row < 0 || row >= d.p.RowsPerBank {
		panic(fmt.Sprintf("dram: address out of range: bank %d row %d", bank, row))
	}
}
