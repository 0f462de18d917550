package regfile

// BankSet models a set of pipelined banks. Each bank accepts a new request
// every `initiation` cycles (the occupancy / cycle time) and returns data
// `latency` cycles after the request starts service. The distinction
// matters for the whole paper: slow-cell technologies (Table 2) raise the
// access LATENCY several-fold while the banks stay pipelined, and LTRF's
// contribution is tolerating that latency — not recovering lost bandwidth.
//
// A request to bank b arriving at `now` begins service at max(now, free[b]);
// the bank is then busy for `initiation` cycles, and the requester sees the
// data at start+latency. Requests must arrive in approximately monotone
// time order (the simulator issues reads at the current cycle).
type BankSet struct {
	free       []int64
	initiation int64
	latency    int64

	Accesses  int64
	Conflicts int64 // accesses that had to wait for the bank
}

// NewBankSet creates n banks with the given initiation interval and access
// latency (both at least 1).
func NewBankSet(n, initiation, latency int) *BankSet {
	if n < 1 {
		n = 1
	}
	if initiation < 1 {
		initiation = 1
	}
	if latency < initiation {
		latency = initiation
	}
	return &BankSet{
		free:       make([]int64, n),
		initiation: int64(initiation),
		latency:    int64(latency),
	}
}

// N returns the number of banks.
func (b *BankSet) N() int { return len(b.free) }

// Latency returns the per-access data latency.
func (b *BankSet) Latency() int64 { return b.latency }

// Initiation returns the per-bank initiation interval.
func (b *BankSet) Initiation() int64 { return b.initiation }

// Access requests bank `bank` at cycle `now` and returns the cycle the data
// is available.
func (b *BankSet) Access(now int64, bank int) int64 {
	b.Accesses++
	start := now
	if f := b.free[bank]; f > start {
		start = f
		b.Conflicts++
	}
	b.free[bank] = start + b.initiation
	return start + b.latency
}

// mainBank maps (warp, register) to a main-RF bank. Registers of one warp
// interleave across banks; different warps start at rotated offsets so
// register 0 of every warp does not collide on bank 0. Bank counts are
// powers of two in every shipped configuration, so the reduction is a mask
// there — this runs once per operand of every issued instruction, and the
// integer division shows up in profiles.
func mainBank(nBanks, warpID int, reg int) int {
	h := reg + warpID*7
	if nBanks&(nBanks-1) == 0 {
		return h & (nBanks - 1)
	}
	return h % nBanks
}
