package memctrl

import (
	"fmt"

	"tivapromi/internal/dram"
	"tivapromi/internal/mitigation"
)

// This file implements the cycle-accurate controller: an FR-FCFS
// scheduler over per-bank state machines with the JEDEC DDR4 core
// timings (tRCD, tRP, CL, tRAS, tRC, tRRD, tFAW) and all-bank refresh.
// The service-time Controller above is the simulator's fast path; the
// Scheduler exists to validate that the fast path's activation statistics
// are faithful (see the package tests and EXPERIMENTS.md) and to study
// request latency, which service times cannot express.

// Timing holds the DDR4 core timings in controller clock cycles.
type Timing struct {
	TRCD int // ACT to column command
	TRP  int // PRE to ACT
	CL   int // column command to data
	TRAS int // ACT to PRE
	TRC  int // ACT to ACT, same bank
	TRRD int // ACT to ACT, same bank group (tRRD_L)
	// TRRDS is ACT to ACT across bank groups (tRRD_S); 0 falls back to
	// TRRD (a device without bank groups).
	TRRDS int
	// BankGroups is the DDR4 bank-group count; 0 or 1 disables grouping.
	BankGroups int
	TFAW       int // rolling four-ACT window
	TREF       int // refresh interval (tREFI)
	TRFC       int // refresh cycle time
}

// DDR42400 returns DDR4-2400-flavored timings at the paper's 1.2 GHz
// controller clock (Table I: tRC 45 ns = 54 cycles, tREFI 7.8 µs,
// tRFC 350 ns).
func DDR42400() Timing {
	return Timing{
		TRCD:       17,
		TRP:        17,
		CL:         17,
		TRAS:       39,
		TRC:        54,
		TRRD:       6,
		TRRDS:      4,
		BankGroups: 4,
		TFAW:       26,
		TREF:       9360,
		TRFC:       420,
	}
}

// Validate reports inconsistent timings.
func (t Timing) Validate() error {
	switch {
	case t.TRCD <= 0 || t.TRP <= 0 || t.CL <= 0 || t.TRAS <= 0 || t.TRC <= 0:
		return fmt.Errorf("memctrl: non-positive core timing in %+v", t)
	case t.TRC < t.TRAS:
		return fmt.Errorf("memctrl: tRC (%d) < tRAS (%d)", t.TRC, t.TRAS)
	case t.TREF <= t.TRFC:
		return fmt.Errorf("memctrl: tREFI (%d) must exceed tRFC (%d)", t.TREF, t.TRFC)
	}
	return nil
}

// Request is one memory request for the scheduler.
type Request struct {
	Bank  int
	Row   int
	Write bool

	arrived int64
}

// SchedStats aggregates scheduler activity.
type SchedStats struct {
	Cycles    int64
	Served    uint64
	RowMisses uint64 // ACT commands issued
	Refreshes uint64
	// Latency accounting in cycles (arrival to column command issue).
	LatencyTotal int64
	LatencyMax   int64
	// FAWStalls counts cycles an ACT was ready but the four-activation
	// window blocked it.
	FAWStalls uint64
}

// AvgLatency returns the mean request latency in cycles.
func (s SchedStats) AvgLatency() float64 {
	if s.Served == 0 {
		return 0
	}
	return float64(s.LatencyTotal) / float64(s.Served)
}

// RowHits returns the served requests that did not need their own ACT
// (each ACT serves exactly one opener).
func (s SchedStats) RowHits() uint64 {
	if s.Served <= s.RowMisses {
		return 0
	}
	return s.Served - s.RowMisses
}

// bankState is one bank's state machine.
type bankState struct {
	openRow   int32 // -1 when precharged
	actReady  int64 // earliest cycle an ACT may issue (tRP/tRC)
	colReady  int64 // earliest cycle a column command may issue (tRCD)
	preReady  int64 // earliest cycle a PRE may issue (tRAS)
	busyUntil int64 // data/maintenance occupancy
}

// Scheduler is a cycle-accurate FR-FCFS DDR4 controller front.
// Not safe for concurrent use.
type Scheduler struct {
	timing Timing
	dev    *dram.Device
	mit    mitigation.Mitigator

	banks    []bankState
	queue    []Request
	queueCap int

	cycle   int64
	nextRef int64
	// actTimes is a ring of the last four ACT issue cycles, for the tFAW
	// window; actNext indexes the oldest, the 4th-most-recent ACT.
	actTimes    [4]int64
	actNext     int
	lastAct     int64 // for tRRD
	lastActBank int   // bank of the last ACT, for bank-group spacing

	pending []mitigation.Command
	scratch []mitigation.Command
	stats   SchedStats
}

// NewScheduler builds a cycle-accurate controller over dev with the given
// mitigation (nil for none) and a bounded request queue.
func NewScheduler(t Timing, dev *dram.Device, mit mitigation.Mitigator, queueCap int) (*Scheduler, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if queueCap <= 0 {
		return nil, fmt.Errorf("memctrl: queue capacity %d", queueCap)
	}
	s := &Scheduler{
		timing:   t,
		dev:      dev,
		mit:      mit,
		banks:    make([]bankState, dev.Params().TotalBanks()),
		queueCap: queueCap,
		nextRef:  int64(t.TREF),
		lastAct:  -1 << 40,
	}
	s.lastActBank = -1
	// Slots not yet written hold the same far-past sentinel as lastAct,
	// so fewer than four ACTs never close the tFAW window.
	for i := range s.actTimes {
		s.actTimes[i] = -1 << 40
	}
	for b := range s.banks {
		s.banks[b].openRow = -1
	}
	return s, nil
}

// Stats returns the scheduler counters.
func (s *Scheduler) Stats() SchedStats { return s.stats }

// Cycle returns the controller clock.
func (s *Scheduler) Cycle() int64 { return s.cycle }

// QueueLen returns the number of queued requests.
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// Enqueue adds a request; it reports false when the queue is full (the
// front-end must stall).
func (s *Scheduler) Enqueue(bank, row int, write bool) bool {
	if len(s.queue) >= s.queueCap {
		return false
	}
	if bank < 0 || bank >= len(s.banks) || row < 0 || row >= s.dev.Params().RowsPerBank {
		panic(fmt.Sprintf("memctrl: request out of range: bank %d row %d", bank, row))
	}
	s.queue = append(s.queue, Request{Bank: bank, Row: row, Write: write, arrived: s.cycle})
	return true
}

// Tick advances the controller one cycle, issuing at most one command
// (the single command bus of a DDR4 channel).
func (s *Scheduler) Tick() {
	s.cycle++
	// Refresh has absolute priority once due: wait for all banks to be
	// precharge-able, then refresh.
	if s.cycle >= s.nextRef {
		s.issueRefresh()
		return
	}
	// Drain buffered mitigation commands when a bank is free (the Fig. 1
	// interrupt logic sharing the command bus).
	if s.issueMaintenance() {
		return
	}
	// FR-FCFS: first ready column command (open row) in queue order...
	for i := range s.queue {
		r := &s.queue[i]
		b := &s.banks[r.Bank]
		if b.openRow == int32(r.Row) && s.cycle >= b.colReady && s.cycle >= b.busyUntil {
			s.serve(i)
			return
		}
	}
	// ...then the oldest request: ACT if precharged, else PRE the
	// conflicting row.
	for i := range s.queue {
		r := &s.queue[i]
		b := &s.banks[r.Bank]
		if b.openRow == int32(r.Row) {
			continue // waiting on tRCD; a younger row hit may fire next cycle
		}
		if b.openRow == -1 {
			if s.cycle >= b.actReady && s.canActivate(r.Bank) {
				s.issueACT(r.Bank, r.Row)
				return
			}
			if s.cycle >= b.actReady {
				s.stats.FAWStalls++
			}
			continue
		}
		if s.cycle >= b.preReady && s.cycle >= b.busyUntil {
			s.issuePRE(r.Bank)
			return
		}
	}
}

// canActivate enforces ACT-to-ACT spacing (tRRD_L within a bank group,
// tRRD_S across groups) and the four-ACT window (tFAW).
func (s *Scheduler) canActivate(bank int) bool {
	gap := int64(s.timing.TRRD)
	if s.timing.BankGroups > 1 && s.timing.TRRDS > 0 && s.lastActBank >= 0 {
		if bank%s.timing.BankGroups != s.lastActBank%s.timing.BankGroups {
			gap = int64(s.timing.TRRDS)
		}
	}
	if s.cycle-s.lastAct < gap {
		return false
	}
	if s.cycle-s.actTimes[s.actNext] < int64(s.timing.TFAW) {
		return false
	}
	return true
}

// issueACT opens a row, feeding the device and the mitigation.
func (s *Scheduler) issueACT(bank, row int) {
	b := &s.banks[bank]
	b.openRow = int32(row)
	b.colReady = s.cycle + int64(s.timing.TRCD)
	b.preReady = s.cycle + int64(s.timing.TRAS)
	b.actReady = s.cycle + int64(s.timing.TRC)
	s.lastAct = s.cycle
	s.lastActBank = bank
	s.actTimes[s.actNext] = s.cycle
	s.actNext = (s.actNext + 1) & 3
	s.stats.RowMisses++
	s.dev.Activate(bank, row)
	if s.mit != nil {
		s.scratch = s.mit.OnActivate(bank, row, s.dev.IntervalInWindow(), s.scratch[:0])
		s.pending = append(s.pending, s.scratch...)
	}
}

// issuePRE closes a bank's row.
func (s *Scheduler) issuePRE(bank int) {
	b := &s.banks[bank]
	b.openRow = -1
	b.actReady = maxI64(b.actReady, s.cycle+int64(s.timing.TRP))
}

// serve issues the column command for queue entry i and retires it.
func (s *Scheduler) serve(i int) {
	r := s.queue[i]
	b := &s.banks[r.Bank]
	b.busyUntil = s.cycle + int64(s.timing.CL)
	s.stats.Served++
	lat := s.cycle - r.arrived
	s.stats.LatencyTotal += lat
	if lat > s.stats.LatencyMax {
		s.stats.LatencyMax = lat
	}
	s.queue = append(s.queue[:i], s.queue[i+1:]...)
}

// issueMaintenance executes one buffered mitigation command if its bank
// is idle. Maintenance occupies the bank for a full tRC and leaves it
// precharged.
func (s *Scheduler) issueMaintenance() bool {
	for i, cmd := range s.pending {
		b := &s.banks[cmd.Bank]
		if s.cycle < b.actReady || s.cycle < b.busyUntil {
			continue
		}
		switch cmd.Kind {
		case mitigation.ActN:
			s.dev.ActivateNeighbors(cmd.Bank, cmd.Row)
		case mitigation.ActNOne:
			s.dev.ActivateNeighbor(cmd.Bank, cmd.Row, int(cmd.Side))
		case mitigation.RefreshRow:
			s.dev.RefreshRow(cmd.Bank, cmd.Row)
		}
		b.openRow = -1
		b.actReady = s.cycle + int64(s.timing.TRC)
		b.busyUntil = s.cycle + int64(s.timing.TRC)
		s.pending = append(s.pending[:i], s.pending[i+1:]...)
		return true
	}
	return false
}

// issueRefresh performs the all-bank auto-refresh protocol: the
// mitigation observes ref, its commands join the buffer, the device
// refreshes, and every bank is busy for tRFC.
func (s *Scheduler) issueRefresh() {
	if s.mit != nil {
		s.scratch = s.mit.OnRefreshInterval(s.dev.IntervalInWindow(), s.scratch[:0])
		s.pending = append(s.pending, s.scratch...)
	}
	s.dev.AdvanceInterval()
	s.stats.Refreshes++
	for b := range s.banks {
		s.banks[b].openRow = -1
		after := s.cycle + int64(s.timing.TRFC)
		s.banks[b].actReady = maxI64(s.banks[b].actReady, after)
		s.banks[b].busyUntil = maxI64(s.banks[b].busyUntil, after)
	}
	s.nextRef += int64(s.timing.TREF)
	if s.mit != nil && s.dev.IntervalInWindow() == 0 {
		s.mit.OnNewWindow()
	}
}

// Drain runs the clock until the queue and maintenance buffer are empty
// (bounded by a deadline to catch livelocks).
func (s *Scheduler) Drain(maxCycles int64) error {
	deadline := s.cycle + maxCycles
	for (len(s.queue) > 0 || len(s.pending) > 0) && s.cycle < deadline {
		s.Tick()
	}
	if len(s.queue) > 0 || len(s.pending) > 0 {
		return fmt.Errorf("memctrl: scheduler did not drain within %d cycles", maxCycles)
	}
	s.stats.Cycles = s.cycle
	return nil
}

// RunIntervals feeds requests from next() whenever the queue has room and
// ticks until n refresh intervals have elapsed.
func (s *Scheduler) RunIntervals(n int, next func() (bank, row int, write bool)) {
	target := s.dev.Interval() + n
	for s.dev.Interval() < target {
		for len(s.queue) < s.queueCap {
			bank, row, write := next()
			s.Enqueue(bank, row, write)
		}
		s.Tick()
	}
	s.stats.Cycles = s.cycle
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
