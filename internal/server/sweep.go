package server

import (
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ltrf/internal/exp"
	"ltrf/internal/regfile"
	"ltrf/internal/sim"
	"ltrf/internal/workloads"
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
// cross product. Empty optional axes contribute their default value only.
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
	// CTAs per SM.
	Schedulers []string `json:"schedulers,omitempty"`
	Prefetch   []string `json:"prefetch,omitempty"`
	CTAs       []int    `json:"ctas,omitempty"`
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

	Scheduler string `json:"scheduler,omitempty"`
	Prefetch  string `json:"prefetch,omitempty"`
	CTAs      int    `json:"ctas,omitempty"`

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

// expandSweep resolves design and workload names against the live
// registries, validates every axis tuple through exp.Point.Validate, and
// expands the request to the canonical point grid. Validation happens
// BEFORE admission, so a bad axis is a 400 and never burns an evaluation
// slot.
//
// Expansion order (fixed, documented, index-defining): designs (outer) ×
// techs × latency_xs × schedulers × prefetch × ctas × workloads (inner).
func expandSweep(req *SweepRequest, maxPoints int) ([]exp.Point, error) {
	if len(req.Designs) == 0 {
		return nil, fmt.Errorf("designs is required (at least one)")
	}
	if len(req.Workloads) == 0 {
		return nil, fmt.Errorf("workloads is required (at least one)")
	}
	designs := make([]string, len(req.Designs))
	for i, n := range req.Designs {
		d, err := regfile.Lookup(n)
		if err != nil {
			return nil, err
		}
		designs[i] = d.Name
	}
	wls := make([]string, len(req.Workloads))
	for i, n := range req.Workloads {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		wls[i] = w.Name
	}
	techs := req.Techs
	if len(techs) == 0 {
		techs = []int{defaultTech}
	}
	lats := req.LatencyXs
	if len(lats) == 0 {
		lats = []float64{defaultLatencyX}
	}
	budget := cmp.Or(req.Budget, defaultBudget)
	scheds := req.Schedulers
	if len(scheds) == 0 {
		scheds = []string{""}
	}
	prefs := req.Prefetch
	if len(prefs) == 0 {
		prefs = []string{""}
	}
	ctas := req.CTAs
	if len(ctas) == 0 {
		ctas = []int{0}
	}

	n := len(designs) * len(techs) * len(lats) * len(scheds) * len(prefs) * len(ctas) * len(wls)
	if n > maxPoints {
		return nil, fmt.Errorf("grid expands to %d points, above the per-sweep cap of %d — split the request", n, maxPoints)
	}
	pts := make([]exp.Point, 0, n)
	for _, d := range designs {
		for _, tn := range techs {
			for _, lx := range lats {
				for _, sc := range scheds {
					for _, pm := range prefs {
						for _, ct := range ctas {
							// The workload does not enter the simulator
							// configuration: validate once per axis tuple.
							p := exp.Point{
								Design:    sim.Design(d),
								Tech:      tn,
								LatencyX:  lx,
								Unroll:    workloads.UnrollMaxwell,
								Budget:    budget,
								Scheduler: sim.Scheduler(sc),
								Prefetch:  pm,
								CTAs:      ct,
							}
							if err := p.Validate(); err != nil {
								return nil, err
							}
							for _, wl := range wls {
								p.Workload = wl
								pts = append(pts, p)
							}
						}
					}
				}
			}
		}
	}
	return pts, nil
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
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w) // one Encode per record; Encode appends '\n'

	heartbeat := s.cfg.SweepHeartbeat
	if heartbeat <= 0 {
		heartbeat = 10 * time.Second
	}
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()

	start := time.Now()
	sum := SweepSummary{Type: "summary", Points: len(pts)}
	stream := s.cfg.Engine.EvalStream(ctx, req.Parallelism, pts)
	done := 0
	// Records are flushed once per burst: every record already on the
	// stream is written first, and the flush happens when the next receive
	// would block, so no record waits behind one still being computed.
	unflushed := false
	for stream != nil {
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
			stream = nil
			continue
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
		Index:     res.Index,
		Design:    p.Design.Name(),
		Workload:  p.Workload,
		Tech:      p.Tech,
		LatencyX:  p.LatencyX,
		Budget:    p.Budget,
		Scheduler: string(p.Scheduler),
		Prefetch:  p.Prefetch,
		CTAs:      p.CTAs,
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
