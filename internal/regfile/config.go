// Package regfile implements the register-file microarchitectures compared
// in the paper: the conventional banked register file (BL), the hardware
// register-file cache of Gebhart et al. [19] (RFC), the software-managed
// hierarchy of [20] (SHRF), the paper's LTRF and LTRF+ designs, and the
// latency-free Ideal upper bound.
//
// The hardware structures of §4 are modeled explicitly: per-warp Warp
// Control Blocks (register-cache address table, working-set and liveness
// bit-vectors, Figure 7), address allocation units (unused/occupied queues,
// Figure 8), banked main register file and register-file cache with
// bank-conflict timing, and the narrow prefetch crossbar (§4.2).
package regfile

import (
	"fmt"
	"math"

	"ltrf/internal/memtech"
)

// Config carries the timing and geometry parameters of one register-file
// design point, in core cycles.
type Config struct {
	// Main register file.
	Banks       int     // number of main RF banks
	BankCyclesF float64 // raw bank access time at 1x
	NetCyclesF  float64 // operand network traversal at 1x
	LatencyX    float64 // main RF latency multiplier (the x-axis of Figs 11-14)

	// Register file cache (per-warp partition geometry, Figure 5).
	CacheBanks  int // banks = registers per warp partition (N, default 16)
	CacheCycles int // register cache bank access time
	WCBCycles   int // Warp Control Block lookup (§4.3: one extra cycle)
	// SharedCacheRegs is the total capacity of the RFC baseline's SHARED
	// register cache in warp-registers (16KB / 128B = 128). Unlike LTRF,
	// the hardware RFC of [19] is a conventional cache in which "different
	// warps can displace each other's registers" (§2.3 reason 1).
	SharedCacheRegs int

	// Prefetch path.
	XbarCyclesPerReg int // narrow crossbar occupancy per register (§4.2: 4)

	// Operand collection.
	OperandPorts int // WCB address-table read ports (§4.1: 2)
}

// DefaultCacheBanks is the paper's register-file-cache partition size: 16
// registers per active warp (Table 3, "Number of registers in a
// register-interval").
const DefaultCacheBanks = 16

// FromTech derives a Config from a memtech design point with an additional
// latency multiplier (1.0 = the design point's own timing).
func FromTech(p memtech.Params, latX float64, cacheBanks int) Config {
	m := p.Metrics()
	return Config{
		Banks:            p.Banks,
		BankCyclesF:      float64(m.BankCycles),
		NetCyclesF:       float64(m.NetCycles),
		LatencyX:         latX,
		CacheBanks:       cacheBanks,
		CacheCycles:      1,
		WCBCycles:        1,
		SharedCacheRegs:  128, // 16KB / (32 threads x 4B)
		XbarCyclesPerReg: 4,
		OperandPorts:     2,
	}
}

// Baseline returns the configuration-#1 register file at the given latency
// multiplier — the baseline of every sweep figure.
func Baseline(latX float64, cacheBanks int) Config {
	return FromTech(memtech.MustConfig(1), latX, cacheBanks)
}

// MainBankCycles returns the effective bank access latency after applying
// the latency multiplier (minimum 1 cycle).
func (c Config) MainBankCycles() int {
	v := int(math.Round(c.BankCyclesF * c.LatencyX))
	if v < 1 {
		v = 1
	}
	return v
}

// MainBankInitiation returns the bank initiation interval (cycle time): the
// unscaled base bank time. Latency multipliers model slower cells whose
// banks remain pipelined (Table 2 designs raise latency, not cycle time).
func (c Config) MainBankInitiation() int {
	v := int(math.Round(c.BankCyclesF))
	if v < 1 {
		v = 1
	}
	return v
}

// MainNetCycles returns the effective network traversal time after applying
// the latency multiplier (minimum 1 cycle).
func (c Config) MainNetCycles() int {
	v := int(math.Round(c.NetCyclesF * c.LatencyX))
	if v < 1 {
		v = 1
	}
	return v
}

// maxLatencyCycles caps the main-RF bank and network latencies a latency
// multiplier may produce. Event times are int64 sums of cycle counts and
// latencies, and the latencies are rounded to int, so a multiplier past
// this bound would overflow instead of simulating a slower register file.
const maxLatencyCycles = math.MaxInt32

// ValidateLatency checks the latency multiplier: it must be positive and
// finite, and the main-RF bank and network latencies it produces must stay
// within maxLatencyCycles.
func (c Config) ValidateLatency() error {
	if !(c.LatencyX > 0) || math.IsInf(c.LatencyX, 0) {
		return fmt.Errorf("regfile: LatencyX %v must be positive and finite", c.LatencyX)
	}
	if bank, net := c.BankCyclesF*c.LatencyX, c.NetCyclesF*c.LatencyX; bank > maxLatencyCycles || net > maxLatencyCycles {
		return fmt.Errorf("regfile: LatencyX %v makes the main-RF bank access %.4g cycles and the network %.4g, above the %d-cycle cap",
			c.LatencyX, bank, net, maxLatencyCycles)
	}
	return nil
}

// MainAccessCycles is the un-queued main RF access latency.
func (c Config) MainAccessCycles() int { return c.MainBankCycles() + c.MainNetCycles() }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.CacheBanks <= 0 {
		return fmt.Errorf("regfile: non-positive bank counts in %+v", c)
	}
	if err := c.ValidateLatency(); err != nil {
		return err
	}
	if c.XbarCyclesPerReg <= 0 || c.OperandPorts <= 0 {
		return fmt.Errorf("regfile: invalid crossbar/port config %+v", c)
	}
	return nil
}
