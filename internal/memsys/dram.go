package memsys

// DRAMConfig models a GDDR5-like device (paper Table 3: 8 memory
// controllers, FR-FCFS, tCL=12 tRP=12 tRC=40 tRAS=28 tRCD=12 tRRD=6 ns).
// Timing here is expressed in core cycles (1137 MHz core clock: 1ns ≈ 1.14
// cycles; we keep the ratios of Table 3).
type DRAMConfig struct {
	Channels     int
	BanksPerChan int
	RowBytes     int // row-buffer coverage per bank
	BurstCycles  int // data-bus occupancy per 128B transaction

	TCL  int // CAS latency (row hit)
	TRP  int // precharge
	TRCD int // activate-to-CAS
	TRC  int // activate-to-activate (same bank)
}

// DefaultDRAM returns Table 3's memory system scaled to core cycles.
func DefaultDRAM() DRAMConfig {
	return DRAMConfig{
		Channels:     8,
		BanksPerChan: 16,
		RowBytes:     2048,
		BurstCycles:  4,
		TCL:          14,
		TRP:          14,
		TRCD:         14,
		TRC:          46,
	}
}

type dramBank struct {
	openRow  int64
	hasOpen  bool
	nextFree int64 // earliest cycle the bank can begin a new access
	lastACT  int64 // last activate time (tRC)
}

// DRAM is a bank-timing DRAM model. True FR-FCFS reordering is approximated
// by row-buffer-aware in-order per-bank service: a request to the currently
// open row pays only CAS latency, which captures the row-hit benefit FR-FCFS
// extracts from streaming GPU traffic.
type DRAM struct {
	cfg   DRAMConfig
	banks [][]dramBank // [channel][bank]
	chBus []int64      // per-channel data-bus availability

	Accesses  int64
	RowHits   int64
	Activates int64 // row-buffer misses (precharge + activate); Accesses - RowHits
}

// NewDRAM builds the DRAM model.
func NewDRAM(cfg DRAMConfig) *DRAM {
	d := &DRAM{cfg: cfg}
	d.banks = make([][]dramBank, cfg.Channels)
	for i := range d.banks {
		d.banks[i] = make([]dramBank, cfg.BanksPerChan)
	}
	d.chBus = make([]int64, cfg.Channels)
	return d
}

// Decode maps a transaction address to its (channel, bank, row) triple —
// the address layout the whole timing model hangs off. At the defaults
// (8 channels, 16 banks, 2KB rows) the bits decompose as
//
//	[0,7)   line offset (128B transactions)
//	[7,10)  channel (line-granularity interleave)
//	[10,11) column within the open row
//	[11,15) bank
//	[15,..) row
//
// The row ID covers every address bit above the bank field
// (addr / (RowBytes*BanksPerChan)), so addresses that agree on (channel,
// bank, row) all fall inside one RowBytes*BanksPerChan-aligned window —
// within which a (channel, bank) pair owns at most RowBytes bytes. The
// historical decode divided by RowBytes*BanksPerChan*Channels as if the
// channel bits sat ABOVE the row field; since they actually interleave
// below bit 11, that dropped bits 15-17 from the row ID and aliased
// addresses 32KB apart in the same bank onto one row — false row-buffer
// hits, deflated Activates, deflated DRAM energy.
func (c DRAMConfig) Decode(addr uint64) (ch, bank int, row int64) {
	ch = int(addr>>7) % c.Channels // channel interleave at line granularity
	bank = int(addr>>11) % c.BanksPerChan
	row = int64(addr / uint64(c.RowBytes*c.BanksPerChan))
	return ch, bank, row
}

// Access services one 128B transaction beginning no earlier than cycle now,
// returning its completion cycle.
func (d *DRAM) Access(now int64, addr uint64) int64 {
	d.Accesses++
	ch, bankIdx, row := d.cfg.Decode(addr)

	b := &d.banks[ch][bankIdx]
	start := now
	if b.nextFree > start {
		start = b.nextFree
	}

	var ready int64
	if b.hasOpen && b.openRow == row {
		d.RowHits++
		ready = start + int64(d.cfg.TCL)
	} else {
		// Precharge + activate + CAS, respecting tRC from last activate.
		d.Activates++
		actAt := start + int64(d.cfg.TRP)
		if min := b.lastACT + int64(d.cfg.TRC); actAt < min {
			actAt = min
		}
		b.lastACT = actAt
		b.openRow = row
		b.hasOpen = true
		ready = actAt + int64(d.cfg.TRCD) + int64(d.cfg.TCL)
	}

	// Data burst occupies the channel bus.
	busStart := ready
	if d.chBus[ch] > busStart {
		busStart = d.chBus[ch]
	}
	done := busStart + int64(d.cfg.BurstCycles)
	d.chBus[ch] = done
	b.nextFree = ready // bank can overlap next access with the burst
	return done
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (d *DRAM) RowHitRate() float64 {
	if d.Accesses == 0 {
		return 0
	}
	return float64(d.RowHits) / float64(d.Accesses)
}
