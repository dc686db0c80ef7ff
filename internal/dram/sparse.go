package dram

import "tivapromi/internal/rowpool"

// Lazily-paged per-row state. A full-DIMM population (32 banks × 64K
// rows) makes the seed's dense per-row arrays — disturbance counters,
// flip bookkeeping, the data-store index — the dominant heap cost even
// when a run touches a few thousand rows. The paged stores below
// allocate a fixed-size page of a bank's rows on first touch and treat
// absent pages as zero, so heap scales with the touched-row footprint,
// not the population. Reads of untouched rows and zeroing writes
// (refresh restores) never allocate.
//
// The dense representation remains the small-geometry fast path (see
// Device): a page probe is one shift, one bounds-checked load and a
// predictable nil test, but the flat array is still cheaper, and every
// pre-geometry configuration keeps its exact memory layout.

const (
	// pageShift sizes a page at 4096 rows: 16 KB of uint32 counters,
	// small enough that a localized attack on a 64K-row bank allocates a
	// couple of pages, large enough that the page table itself (16
	// entries per 64K-row bank) is noise.
	pageShift = 12
	pageRows  = 1 << pageShift
	pageMask  = pageRows - 1
)

// pagedU32 is a lazily-paged []uint32 indexed by row. The zero value is
// an all-zero store; pages materialize on the first non-zero write.
type pagedU32 struct {
	pages [][]uint32
}

func newPagedU32(rows int) pagedU32 {
	return pagedU32{pages: make([][]uint32, (rows+pageMask)>>pageShift)}
}

// get returns the value at row (0 for rows on untouched pages).
func (p *pagedU32) get(row int) uint32 {
	pg := p.pages[row>>pageShift]
	if pg == nil {
		return 0
	}
	return pg[row&pageMask]
}

// page returns the page holding row, allocating it on first touch.
func (p *pagedU32) page(row int) []uint32 {
	if pg := p.pages[row>>pageShift]; pg != nil {
		return pg
	}
	return p.grow(row)
}

// grow installs a zeroed page from the row-table pool for row's range.
// It is kept out of line so that page and zero, which run on every
// activation and refresh restore, stay small enough to inline.
//
//go:noinline
func (p *pagedU32) grow(row int) []uint32 {
	pg := rowpool.Get[uint32](pageRows)
	p.pages[row>>pageShift] = pg
	return pg
}

// zero stores 0 at row. Absent pages already read as zero, so refresh
// restores of quiet rows never allocate.
func (p *pagedU32) zero(row int) {
	if pg := p.pages[row>>pageShift]; pg != nil {
		pg[row&pageMask] = 0
	}
}

// set stores v at row; like zero, storing 0 never allocates.
func (p *pagedU32) set(row int, v uint32) {
	if v == 0 {
		p.zero(row)
		return
	}
	p.page(row)[row&pageMask] = v
}

// release hands every allocated page back to the row-table pool; the
// store reads as untouched afterwards.
func (p *pagedU32) release() {
	for i, pg := range p.pages {
		if pg != nil {
			rowpool.Put(pg)
			p.pages[i] = nil
		}
	}
}

// touchedPages counts allocated pages.
func (p *pagedU32) touchedPages() int {
	n := 0
	for _, pg := range p.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// pagedI32 is a lazily-paged []int32 with a non-zero "absent" fill
// value, used by the data-store index (-1 = row never written).
type pagedI32 struct {
	pages [][]int32
	fill  int32
}

func newPagedI32(rows int, fill int32) pagedI32 {
	return pagedI32{pages: make([][]int32, (rows+pageMask)>>pageShift), fill: fill}
}

// get returns the value at row (the fill value on untouched pages).
func (p *pagedI32) get(row int) int32 {
	pg := p.pages[row>>pageShift]
	if pg == nil {
		return p.fill
	}
	return pg[row&pageMask]
}

// set stores v at row, allocating (and fill-initializing) the page on
// first touch.
func (p *pagedI32) set(row int, v int32) {
	i := row >> pageShift
	pg := p.pages[i]
	if pg == nil {
		if v == p.fill {
			return
		}
		pg = make([]int32, pageRows)
		if p.fill != 0 {
			for j := range pg {
				pg[j] = p.fill
			}
		}
		p.pages[i] = pg
	}
	pg[row&pageMask] = v
}

// touchedPages counts allocated pages.
func (p *pagedI32) touchedPages() int {
	n := 0
	for _, pg := range p.pages {
		if pg != nil {
			n++
		}
	}
	return n
}
