package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ltrf/internal/exp"
	"ltrf/internal/sim"
)

// POST /v1/sweep evaluates a whole design-space grid in one request and
// STREAMS the results as NDJSON (application/x-ndjson), one record per
// line, as points complete:
//
//	{"type":"result", "index":0, "design":"LTRF", ... , "ipc":1.42, ...}
//	{"type":"error", "index":7, "design":"fault-panic", ..., "error":{...}}
//	{"type":"heartbeat", "elapsed_ms":10000, "done":42, "total":100}
//	{"type":"summary", "points":100, "ok":98, "errors":1, "cancelled":1, ...}
//
// Record order is completion order, not grid order — warm points (memoized
// or store-resident) flush immediately instead of queueing behind cold
// simulations, and each record's "index" maps it back to its position in
// the expanded grid (see expandSweep for the expansion order). Heartbeats
// keep idle-timeout proxies alive through long cold stretches; the summary
// is always the terminal record of a completed sweep — its absence means
// the stream was cut (client disconnect, server death).
//
// The whole sweep occupies ONE admission slot (it is one request); its
// internal fan-out is bounded by the request's parallelism field.

// SweepRequest declares the grid as per-axis value lists; the grid is their
// cross product. It names the same ten axes an EvalRequest does, and an
// empty optional list contributes that axis's default value only.
type SweepRequest struct {
	// Designs and Workloads are required, validated against the registries.
	Designs   []string `json:"designs"`
	Workloads []string `json:"workloads"`
	// Techs are Table 2 config indices (default [1]); LatencyXs the RF
	// latency multipliers (default [1]).
	Techs     []int     `json:"techs,omitempty"`
	LatencyXs []float64 `json:"latency_xs,omitempty"`
	// Budget is the per-point dynamic-instruction budget (default 40000).
	Budget int64 `json:"budget,omitempty"`
	// Optional axes: scheduler variants, hardware-prefetch modes, resident
	// CTAs per SM, registers per prefetch interval, active warps.
	Schedulers      []string `json:"schedulers,omitempty"`
	Prefetch        []string `json:"prefetch,omitempty"`
	CTAs            []int    `json:"ctas,omitempty"`
	RegsPerInterval []int    `json:"regs_per_interval,omitempty"`
	ActiveWarps     []int    `json:"active_warps,omitempty"`
	// IncludeStats embeds the full sim.Stats in every result record
	// (voluminous; off by default).
	IncludeStats bool `json:"include_stats,omitempty"`
	// Parallelism bounds concurrently simulated points within this sweep
	// (0 = GOMAXPROCS).
	Parallelism int `json:"parallelism,omitempty"`
	// TimeoutMS caps the whole sweep; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SweepResultRecord is one completed point ("result") or failed point
// ("error") on the NDJSON stream.
type SweepResultRecord struct {
	Type     string  `json:"type"`
	Index    int     `json:"index"`
	Design   string  `json:"design"`
	Workload string  `json:"workload"`
	Tech     int     `json:"tech"`
	LatencyX float64 `json:"latency_x"`
	Budget   int64   `json:"budget"`
	OptionalAxes

	// Result fields ("result" records only).
	IPC       float64    `json:"ipc,omitempty"`
	Cycles    int64      `json:"cycles,omitempty"`
	Instrs    int64      `json:"instrs,omitempty"`
	Truncated bool       `json:"truncated,omitempty"`
	Warps     int        `json:"warps,omitempty"`
	Capacity  int        `json:"capacity_kb,omitempty"`
	Stats     *sim.Stats `json:"stats,omitempty"`

	// Error ("error" records only).
	Error *errorBody `json:"error,omitempty"`
}

// SweepHeartbeat keeps the connection visibly alive through cold stretches.
type SweepHeartbeat struct {
	Type      string `json:"type"` // "heartbeat"
	ElapsedMS int64  `json:"elapsed_ms"`
	Done      int    `json:"done"`
	Total     int    `json:"total"`
}

// SweepSummary is the terminal record of a completed sweep: counts,
// failures, and truncation marks.
type SweepSummary struct {
	Type       string      `json:"type"` // "summary"
	Points     int         `json:"points"`
	OK         int         `json:"ok"`
	Errors     int         `json:"errors"`
	Cancelled  int         `json:"cancelled"`
	Truncated  []int       `json:"truncated,omitempty"` // indices of truncated results
	Failures   []SweepFail `json:"failures,omitempty"`
	DurationMS int64       `json:"duration_ms"`
	// Engine-level accounting for this server since start (monotonic
	// counters, not per-sweep deltas): how much of the grid was served
	// without simulating.
	Sims      int64 `json:"sims"`
	StoreHits int64 `json:"store_hits"`
}

// SweepFail is one failed point in the summary.
type SweepFail struct {
	Index   int    `json:"index"`
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// maxSweepPoints caps the expanded grid (Config.MaxSweepPoints overrides).
const maxSweepPoints = 4096

// expandSweep expands the request to the canonical point grid, building
// every point with newPoint, so each is registry-resolved and validated
// BEFORE admission: a bad axis is a 400 and never burns an evaluation slot.
// The grid size is bounded while its axis lengths are multiplied, so an
// oversized grid is a 400 however large its product.
//
// Expansion order (fixed, documented, index-defining): designs (outer) ×
// techs × latency_xs × schedulers × prefetch × ctas × regs_per_interval ×
// active_warps × workloads (inner).
func expandSweep(req *SweepRequest, maxPoints int) ([]exp.Point, error) {
	if len(req.Designs) == 0 {
		return nil, fmt.Errorf("designs is required (at least one)")
	}
	if len(req.Workloads) == 0 {
		return nil, fmt.Errorf("workloads is required (at least one)")
	}
	dims := [...]int{len(req.Designs), len(req.Techs), len(req.LatencyXs), len(req.Schedulers),
		len(req.Prefetch), len(req.CTAs), len(req.RegsPerInterval), len(req.ActiveWarps), len(req.Workloads)}
	n := 1
	for i := range dims {
		dims[i] = max(dims[i], 1) // an empty optional axis is its default alone
		if n > maxPoints/dims[i] {
			return nil, fmt.Errorf("grid expands to more than %d points, the per-sweep cap — split the request", maxPoints)
		}
		n *= dims[i]
	}
	pts := make([]exp.Point, n)
	var ix [len(dims)]int // the odometer: one digit per axis, in expansion order
	for k := range pts {
		p, err := newPoint(req.Designs[ix[0]], req.Workloads[ix[8]],
			nth(req.Techs, ix[1], defaultTech), nth(req.LatencyXs, ix[2], defaultLatencyX), req.Budget,
			OptionalAxes{
				Scheduler:       nth(req.Schedulers, ix[3], ""),
				Prefetch:        nth(req.Prefetch, ix[4], ""),
				CTAs:            nth(req.CTAs, ix[5], 0),
				RegsPerInterval: nth(req.RegsPerInterval, ix[6], 0),
				ActiveWarps:     nth(req.ActiveWarps, ix[7], 0),
			})
		if err != nil {
			return nil, err
		}
		pts[k] = p
		for a := len(ix) - 1; a >= 0; a-- { // the innermost digit turns fastest
			if ix[a]++; ix[a] < dims[a] {
				break
			}
			ix[a] = 0
		}
	}
	return pts, nil
}

// nth is an axis list's i-th value, or def when the list is empty.
func nth[T any](xs []T, i int, def T) T {
	if len(xs) == 0 {
		return def
	}
	return xs[i]
}

// handleSweep serves POST /v1/sweep: the expanded grid, streamed as
// NDJSON records in completion order and closed by the summary.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	var pts []exp.Point
	ctx, end := s.begin(w, r, &req, &req.TimeoutMS, func() (err error) {
		pts, err = expandSweep(&req, s.cfg.MaxSweepPoints)
		return err
	})
	if end == nil {
		return
	}
	defer end()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Sweep-Points", strconv.Itoa(len(pts)))
	w.WriteHeader(http.StatusOK)
	flush := http.NewResponseController(w).Flush // a writer that cannot flush makes it a no-op
	// The client learns the sweep is accepted, and its size, before any
	// point is computed.
	flush()
	enc := json.NewEncoder(w) // one Encode per record; Encode appends '\n'

	ticker := time.NewTicker(s.cfg.SweepHeartbeat)
	defer ticker.Stop()

	start := time.Now()
	sum := SweepSummary{Type: "summary", Points: len(pts)}
	stream := s.cfg.Engine.EvalStream(ctx, req.Parallelism, pts)
	done := 0
	// Records are flushed once per burst: every record already on the
	// stream is written first, and the flush happens when the next receive
	// would block, so no record waits behind one still being computed.
	unflushed := false
	for {
		var res exp.StreamResult
		var ok bool
		select {
		case res, ok = <-stream:
		default:
			if unflushed {
				flush()
				unflushed = false
			}
			select {
			case res, ok = <-stream:
			case <-ticker.C:
				enc.Encode(SweepHeartbeat{ //nolint:errcheck // client gone → ctx fires; stream drains
					Type: "heartbeat", ElapsedMS: time.Since(start).Milliseconds(),
					Done: done, Total: len(pts),
				})
				flush()
				continue
			}
		}
		if !ok {
			break
		}
		done++
		rec := sweepRecord(&req, res)
		if res.Err != nil {
			sum.Errors++
			sum.Failures = append(sum.Failures, SweepFail{
				Index: res.Index, Kind: rec.Error.Kind, Message: rec.Error.Message,
			})
		} else {
			sum.OK++
			if res.Res.Truncated {
				sum.Truncated = append(sum.Truncated, res.Index)
			}
		}
		enc.Encode(rec) //nolint:errcheck // as above
		unflushed = true
	}
	sum.Cancelled = len(pts) - done
	sum.DurationMS = time.Since(start).Milliseconds()
	sum.Sims = s.cfg.Engine.Sims()
	sum.StoreHits = s.cfg.Engine.StoreHits()
	enc.Encode(sum) //nolint:errcheck // terminal record; best-effort on a dead client
	flush()
}

// sweepRecord renders one stream delivery as its NDJSON record.
func sweepRecord(req *SweepRequest, res exp.StreamResult) SweepResultRecord {
	p := res.Point
	rec := SweepResultRecord{
		Index:        res.Index,
		Design:       p.Design.Name(),
		Workload:     p.Workload,
		Tech:         p.Tech,
		LatencyX:     p.LatencyX,
		Budget:       p.Budget,
		OptionalAxes: axesOf(p),
	}
	if res.Err != nil {
		rec.Type = "error"
		eb := evalErrorBody(res.Err)
		rec.Error = &eb
		return rec
	}
	rec.Type = "result"
	rec.IPC = res.Res.IPC
	rec.Cycles = res.Res.Cycles
	rec.Instrs = res.Res.Instrs
	rec.Truncated = res.Res.Truncated
	rec.Warps = res.Res.Warps
	rec.Capacity = res.Res.Capacity
	if req.IncludeStats {
		st := res.Res.Stats
		rec.Stats = &st
	}
	return rec
}
