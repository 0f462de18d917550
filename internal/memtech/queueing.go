package memtech

// SimulateQueueing measures the average effective register access latency of
// a design point under synthetic operand-collector traffic, including
// bank-conflict queueing delay — the measurement GPGPU-Sim performs for the
// paper's Table 2 ("The results include queuing delays incurred due to bank
// conflicts").
//
// Traffic model: each cycle, a deterministic pseudo-random number of operand
// requests (mean reqsPerCycle) lands on uniformly distributed banks. Each
// bank is a single server with service time BankCycles; a request's latency
// is its queueing delay + bank access + network traversal.
func SimulateQueueing(p Params, reqsPerCycle float64, cycles int, seed uint64) float64 {
	m := p.Metrics()
	bankFree := make([]int64, p.Banks)
	rng := seed | 1
	next := func() uint64 {
		// xorshift64*
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return rng * 0x2545F4914F6CDD1D
	}

	var totalLat, nReq int64
	// Fixed-point accumulator to issue fractional requests per cycle.
	acc := 0.0
	for now := int64(0); now < int64(cycles); now++ {
		acc += reqsPerCycle
		for acc >= 1 {
			acc--
			bank := int(next() % uint64(p.Banks))
			start := now
			if bankFree[bank] > start {
				start = bankFree[bank]
			}
			done := start + int64(m.BankCycles)
			bankFree[bank] = done
			totalLat += (done - now) + int64(m.NetCycles)
			nReq++
		}
	}
	if nReq == 0 {
		return 0
	}
	return float64(totalLat) / float64(nReq)
}

// QueueingLatency is SimulateQueueing over the fixed 200k-cycle traffic
// window and seed that Table 2's effective-latency column measures with.
func QueueingLatency(p Params, reqsPerCycle float64) float64 {
	return SimulateQueueing(p, reqsPerCycle, 200000, 0x5EED)
}

// EffectiveLatencyX returns the queueing-inclusive access latency of p
// relative to the baseline configuration #1 under identical traffic.
func EffectiveLatencyX(p Params, reqsPerCycle float64) float64 {
	base := QueueingLatency(Table2[0], reqsPerCycle)
	this := QueueingLatency(p, reqsPerCycle)
	if base == 0 {
		return 0
	}
	return this / base
}
