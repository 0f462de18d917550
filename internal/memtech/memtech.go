// Package memtech models register-file implementation technologies: cell
// technology, bank organization, and interconnect, yielding the capacity /
// area / power / latency design points of the paper's Table 2.
//
// The paper extracts timing, area, and power from CACTI 6.0 [51] and NVSim
// [17] and feeds them to GPGPU-Sim. Neither tool exists here, so this
// package substitutes an analytical model with per-technology constants
// calibrated against Table 2 itself (the numbers are inputs to the
// evaluation either way). On top of the static model,
// SimulateQueueing provides the bank-conflict queueing measurement that the
// paper's table folds into its latency column.
package memtech

import (
	"fmt"
	"math"
)

// Cell enumerates storage cell technologies (§2.2).
type Cell uint8

const (
	// HPSRAM is high-performance CMOS SRAM, the baseline GPU RF cell.
	HPSRAM Cell = iota
	// LSTPSRAM is low-standby-power CMOS SRAM.
	LSTPSRAM
	// TFETSRAM is tunnel-FET based SRAM: near-zero leakage, slow access.
	TFETSRAM
	// DWM is domain-wall (racetrack) memory: extreme density, long and
	// variable access latency due to shift operations.
	DWM
)

func (c Cell) String() string {
	switch c {
	case HPSRAM:
		return "HP SRAM"
	case LSTPSRAM:
		return "LSTP SRAM"
	case TFETSRAM:
		return "TFET SRAM"
	case DWM:
		return "DWM"
	}
	return "invalid"
}

// Network enumerates the operand-delivery interconnect (§2.2, [35]).
type Network uint8

const (
	// Crossbar is the baseline full crossbar with 1024-bit links.
	Crossbar Network = iota
	// FlattenedButterfly reduces crossbar overhead when the bank count
	// grows 8x (Kim et al. [35]).
	FlattenedButterfly
)

func (n Network) String() string {
	switch n {
	case Crossbar:
		return "Crossbar"
	case FlattenedButterfly:
		return "F. Butterfly"
	}
	return "invalid"
}

// cellParams holds the calibrated per-technology constants. Values are
// relative to HP SRAM = 1. The leak/dyn split of total baseline RF power is
// leakShare/dynShare below; together these reproduce Table 2's power column
// and give the power model (internal/power) a meaningful static/dynamic
// decomposition.
type cellParams struct {
	areaPerBit float64 // relative cell area
	leak       float64 // relative leakage power per KB
	dyn        float64 // relative dynamic energy per access
}

var cellTable = map[Cell]cellParams{
	HPSRAM:   {areaPerBit: 1.0, leak: 1.0, dyn: 1.0},
	LSTPSRAM: {areaPerBit: 1.0, leak: 0.32, dyn: 0.70},
	TFETSRAM: {areaPerBit: 1.0, leak: 0.09, dyn: 0.286},
	DWM:      {areaPerBit: 1.0 / 32.0, leak: 0.05, dyn: 0.199},
}

// leakShare and dynShare decompose the baseline register file's power into
// static and dynamic components at the reference access rate (GPUWattch-like
// split; calibrated so Table 2's Power column is reproduced).
const (
	leakShare = 0.79
	dynShare  = 0.21

	// referenceAccessRate is the operand traffic (main-RF accesses per
	// cycle) at which the leak/dyn split above holds for the baseline.
	referenceAccessRate = 1.9
)

// BaselineLeakPerCycleUnits converts LeakPowerPerCycle's relative leakage
// into per-cycle energy in units of one baseline dynamic access, such that
// at the reference operand traffic the baseline register file's power is
// leakShare leakage / dynShare dynamic. The power model (internal/power)
// multiplies LeakPowerPerCycle by this constant.
const BaselineLeakPerCycleUnits = leakShare / dynShare * referenceAccessRate

// Params describes one register-file design point.
type Params struct {
	Name    string
	Cell    Cell
	Banks   int // number of banks (baseline 16)
	BankKB  int // per-bank capacity in KB (baseline 16)
	Network Network

	// bankCyclesF/netCyclesF are the CACTI/NVSim-substitute timing inputs
	// in baseline core cycles (floating point; Metrics rounds for the
	// cycle-level simulator).
	bankCyclesF float64
	netCyclesF  float64
}

// Baseline geometry of the paper's configuration #1.
const (
	BaselineBanks  = 16
	BaselineBankKB = 16
	BaselineKB     = BaselineBanks * BaselineBankKB // 256KB per SM
)

// Table2 lists the seven design points of the paper's Table 2.
// Timing inputs are calibrated so that the relative access latency column
// reproduces the paper's: 1x, 1.25x, 1.5x, 1.6x, 2.8x, 5.3x, 6.3x.
var Table2 = []Params{
	{Name: "#1", Cell: HPSRAM, Banks: 16, BankKB: 16, Network: Crossbar, bankCyclesF: 3.0, netCyclesF: 1.0},
	{Name: "#2", Cell: HPSRAM, Banks: 16, BankKB: 128, Network: Crossbar, bankCyclesF: 4.0, netCyclesF: 1.0},
	{Name: "#3", Cell: HPSRAM, Banks: 128, BankKB: 16, Network: FlattenedButterfly, bankCyclesF: 3.0, netCyclesF: 3.0},
	{Name: "#4", Cell: LSTPSRAM, Banks: 16, BankKB: 128, Network: Crossbar, bankCyclesF: 5.4, netCyclesF: 1.0},
	{Name: "#5", Cell: LSTPSRAM, Banks: 128, BankKB: 16, Network: FlattenedButterfly, bankCyclesF: 8.2, netCyclesF: 3.0},
	{Name: "#6", Cell: TFETSRAM, Banks: 128, BankKB: 16, Network: FlattenedButterfly, bankCyclesF: 18.2, netCyclesF: 3.0},
	{Name: "#7", Cell: DWM, Banks: 128, BankKB: 16, Network: FlattenedButterfly, bankCyclesF: 22.2, netCyclesF: 3.0},
}

// Config returns the Table 2 design point with 1-based index i (1..7).
func Config(i int) (Params, error) {
	if i < 1 || i > len(Table2) {
		return Params{}, fmt.Errorf("memtech: config #%d out of range 1..%d", i, len(Table2))
	}
	return Table2[i-1], nil
}

// MustConfig is Config for statically known indices.
func MustConfig(i int) Params {
	p, err := Config(i)
	if err != nil {
		panic(err)
	}
	return p
}

// Metrics are the derived Table 2 columns, normalized to configuration #1.
type Metrics struct {
	CapacityKB   int
	CapacityX    float64
	AreaX        float64
	PowerX       float64
	CapPerAreaX  float64
	CapPerPowerX float64
	LatencyX     float64

	// Integer timing for the cycle-level simulator.
	BankCycles int
	NetCycles  int
}

// CapacityKB returns the total register file capacity of the design point.
func (p Params) CapacityKB() int { return p.Banks * p.BankKB }

// rawLatency returns bank+network access time in baseline cycles.
func (p Params) rawLatency() float64 { return p.bankCyclesF + p.netCyclesF }

// Metrics computes the derived columns relative to configuration #1.
func (p Params) Metrics() Metrics {
	base := Table2[0]
	cp := cellTable[p.Cell]
	capX := float64(p.CapacityKB()) / float64(base.CapacityKB())

	areaX := capX * cp.areaPerBit

	// Dynamic energy per access scales with total capacity (longer lines,
	// larger periphery and interconnect); leakage scales with capacity.
	// At the reference access rate this reproduces the Power column.
	powerX := leakShare*capX*cp.leak + dynShare*capX*cp.dyn

	latX := p.rawLatency() / base.rawLatency()

	return Metrics{
		CapacityKB:   p.CapacityKB(),
		CapacityX:    capX,
		AreaX:        areaX,
		PowerX:       powerX,
		CapPerAreaX:  capX / areaX,
		CapPerPowerX: capX / powerX,
		LatencyX:     latX,
		BankCycles:   int(math.Round(p.bankCyclesF)),
		NetCycles:    int(math.Round(p.netCyclesF)),
	}
}

// DynEnergyPerAccess returns the relative dynamic energy of one register
// access (1024-bit operand) for this design point, with configuration #1
// defined as 1.0.
func (p Params) DynEnergyPerAccess() float64 {
	cp := cellTable[p.Cell]
	capX := float64(p.CapacityKB()) / float64(BaselineKB)
	return cp.dyn * capX
}

// LeakPowerPerCycle returns the relative leakage power of the whole
// structure per cycle, with configuration #1 defined as 1.0.
func (p Params) LeakPowerPerCycle() float64 {
	cp := cellTable[p.Cell]
	capX := float64(p.CapacityKB()) / float64(BaselineKB)
	return cp.leak * capX
}

// Scaled returns a copy of p with capacity scaled onto a different bank
// geometry while keeping cell and timing; used for sizing register-file
// caches and WCB-like side structures from the same technology model.
func (p Params) Scaled(banks, bankKB int) Params {
	q := p
	q.Banks = banks
	q.BankKB = bankKB
	return q
}

func (p Params) String() string {
	return fmt.Sprintf("%s %s %dx%dKB %s", p.Name, p.Cell, p.Banks, p.BankKB, p.Network)
}
