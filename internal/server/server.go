// Package server is the sweep-as-a-service HTTP/JSON layer over
// internal/exp.Engine: evaluate single points, regenerate whole paper
// artifacts, and inspect the serving state — with robustness as the design
// center rather than an afterthought.
//
// Failure semantics, end to end:
//
//   - Cancellation: every evaluation runs under the request's context (plus
//     an optional per-request deadline), observed inside the simulator's
//     advance loop — a disconnected client or fired deadline stops the
//     simulation instead of leaking it.
//   - Load shedding: evaluations pass a bounded gate (MaxInFlight running,
//     MaxQueue waiting). A full queue answers 429 immediately; a draining
//     server answers 503 — clients retry elsewhere instead of piling on.
//   - Panic isolation: a panicking design plugin becomes a structured 500
//     for that point (exp.PanicError: point, value, stack); the process and
//     every other request keep going.
//   - Truncation: a result whose simulation hit the cycle cap before its
//     instruction budget is an explicit 422 error state unless the request
//     opts in with allow_truncated — truncated stats are never served as
//     full-budget samples by default.
//   - Draining: BeginDrain stops admitting work while in-flight requests
//     finish; pair it with http.Server.Shutdown for a graceful stop.
package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ltrf/internal/exp"
	"ltrf/internal/regfile"
	"ltrf/internal/sim"
	"ltrf/internal/workloads"
)

// Config assembles a server.
type Config struct {
	// Engine evaluates points (required). Give it a persistent store
	// (exp.NewEngineWithStore) to serve across restarts.
	Engine *exp.Engine
	// MaxInFlight bounds concurrently evaluating requests (0 = GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an evaluation slot before the
	// server sheds with 429 (0 = 4x MaxInFlight).
	MaxQueue int
	// DefaultTimeout caps each evaluation request without an explicit
	// timeout_ms (0 = no server-imposed deadline).
	DefaultTimeout time.Duration
	// MaxBodyBytes caps request bodies on every POST handler; oversized
	// requests answer 413 instead of being read to completion
	// (0 = 1 MiB — generous for axis lists, hostile to accidents).
	MaxBodyBytes int64
	// MaxSweepPoints caps the expanded grid of one /v1/sweep request
	// (0 = 4096).
	MaxSweepPoints int
	// SweepHeartbeat is the idle interval between heartbeat records on a
	// sweep stream (0 = 10s). Tests shrink it to observe heartbeats.
	SweepHeartbeat time.Duration
}

// Server handles the HTTP API. Create with New, mount Handler.
type Server struct {
	cfg Config

	sem     chan struct{} // in-flight evaluation slots
	waiting atomic.Int64  // requests queued for a slot

	draining atomic.Bool
	inflight sync.WaitGroup // admitted requests, for Drain

	shed429 atomic.Int64
	shed503 atomic.Int64

	// svcMean is an exponentially-weighted mean of observed slot-hold times
	// (admission to release), the basis of the shed responses' Retry-After:
	// a queue of N requests drains in about N/MaxInFlight service times, so
	// the header tells clients when a slot is plausibly free instead of a
	// hardcoded guess.
	svcMu   sync.Mutex
	svcMean time.Duration

	// bodies maps each parsed exp.Point /v1/eval has answered with a
	// result to its encoded answers (*evalBodies). An entry exists only
	// for a point the engine has memoized, which it never evicts, so
	// neither is this map.
	bodies sync.Map
}

// New validates the config and returns a server.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxSweepPoints <= 0 {
		cfg.MaxSweepPoints = maxSweepPoints
	}
	if cfg.SweepHeartbeat <= 0 {
		cfg.SweepHeartbeat = 10 * time.Second
	}
	return &Server{
		cfg: cfg,
		sem: make(chan struct{}, cfg.MaxInFlight),
	}, nil
}

// Handler returns the API routes:
//
//	POST /v1/eval        evaluate one point
//	POST /v1/sweep       evaluate a whole grid, streamed as NDJSON
//	POST /v1/experiment  regenerate one paper artifact
//	GET  /v1/meta        designs, workloads, experiments, counters
//	GET  /healthz        200 serving / 503 draining
//
// Every POST route starts with the same prologue (begin): strict decode
// under the Config.MaxBodyBytes cap, validation, admission, and deadline.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/eval", s.handleEval)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/experiment", s.handleExperiment)
	mux.HandleFunc("GET /v1/meta", s.handleMeta)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// maxTimeoutMS is the largest timeout_ms whose time.Duration does not
// overflow; a request outside [0, maxTimeoutMS] is a 400.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// begin is the request prologue every POST route shares. It counts the
// request in flight (Drain waits for it), decodes the body strictly into
// req, checks timeout_ms, runs the route's parse, admits the request
// through the load-shedding gate, and derives its context: bounded by
// timeout_ms when set, else by DefaultTimeout. Every rejection comes
// before admission, so a bad request never holds an evaluation slot or
// runs a simulation. timeoutMS points at req's timeout_ms field.
//
// A nil end means the response has been written (a rejection, a shed, or
// a client gone while queued); otherwise the caller runs the request under
// ctx and must call end.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, req any, timeoutMS *int64, parse func() error) (ctx context.Context, end func()) {
	s.inflight.Add(1)
	release := s.accept(w, r, req, timeoutMS, parse)
	if release == nil {
		s.inflight.Done()
		return nil, nil
	}
	ctx, cancel := r.Context(), func() {}
	timeout := s.cfg.DefaultTimeout
	if *timeoutMS > 0 {
		timeout = time.Duration(*timeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {
		cancel()
		release()
		s.inflight.Done()
	}
}

// accept is begin's gate: a body over the MaxBodyBytes cap is 413; a body
// that is not exactly one JSON object of the request's fields is 400
// (unknown fields, or anything but whitespace after the object); a
// timeout_ms outside [0, maxTimeoutMS] or a request parse rejects is 400;
// and admission may shed (429/503). A nil release means the response has
// been written; otherwise the caller owns an evaluation slot.
func (s *Server) accept(w http.ResponseWriter, r *http.Request, req any, timeoutMS *int64, parse func() error) (release func()) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		writeDecodeErr(w, err)
		return nil
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after the request object")
		}
		writeDecodeErr(w, err)
		return nil
	}
	if ms := *timeoutMS; ms < 0 || ms > maxTimeoutMS {
		writeErr(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("timeout_ms %d is outside [0, %d]", ms, maxTimeoutMS))
		return nil
	}
	if err := parse(); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return nil
	}
	return s.admit(w, r)
}

// writeDecodeErr classifies a request-body decode failure: a body over the
// MaxBytesReader cap is 413 (the client must shrink or split the request);
// everything else is a plain 400.
func writeDecodeErr(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeErr(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds the %d-byte cap", mbe.Limit))
		return
	}
	writeErr(w, http.StatusBadRequest, "bad_request", "invalid JSON: "+err.Error())
}

// BeginDrain stops admitting new work: subsequent requests answer 503.
// In-flight requests continue; wait for them with Drain.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain blocks until every admitted request has finished or ctx fires.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Panic forensics (kind "panic" only).
	PanicValue string `json:"panic_value,omitempty"`
	PanicStack string `json:"panic_stack,omitempty"`
	// The truncated result (kind "truncated" only), so a client that
	// decides the lower bound is still useful need not re-request.
	Result *EvalResponse `json:"result,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, encodeJSON(v))
}

// encodeJSON renders v as every unary response carries it: indented by
// two spaces, with a trailing newline. A value that does not encode
// renders as no bytes.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // an unencodable value yields no body; the status stands
	return buf.Bytes()
}

// writeBody writes an encoded response with one Write, leaving net/http to
// choose between Content-Length and chunking.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // client gone; nothing to do
}

func writeErr(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, map[string]errorBody{"error": {Kind: kind, Message: msg}})
}

// admit performs the load-shedding gate; only a request that finds no free
// slot counts against MaxQueue. On success the caller owns a slot and must
// call the returned release. A nil release means the response has
// already been written (shed or cancelled).
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func()) {
	if s.draining.Load() {
		s.shed503.Add(1)
		w.Header().Set("Retry-After", s.retryAfter())
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against another replica")
		return nil
	}
	select {
	case s.sem <- struct{}{}:
	default:
		if q := s.waiting.Add(1); q > int64(s.cfg.MaxQueue) {
			s.waiting.Add(-1)
			s.shed429.Add(1)
			w.Header().Set("Retry-After", s.retryAfter())
			writeErr(w, http.StatusTooManyRequests, "overloaded", "evaluation queue is full; retry with backoff")
			return nil
		}
		select {
		case s.sem <- struct{}{}:
			s.waiting.Add(-1)
		case <-r.Context().Done():
			s.waiting.Add(-1)
			// Client gone while queued; nothing useful to write.
			writeErr(w, statusClientClosedRequest, "cancelled", "client disconnected while queued")
			return nil
		}
	}
	start := time.Now()
	return func() {
		<-s.sem
		s.observeService(time.Since(start))
	}
}

// observeService folds one request's slot-hold time into the mean with an
// exponential weight of 1/8 — heavy enough to track a shift in the point
// mix (store hits vs fresh 40k-instruction simulations differ by orders of
// magnitude) within a dozen requests, light enough that one straggler does
// not triple the advertised backoff.
func (s *Server) observeService(d time.Duration) {
	s.svcMu.Lock()
	if s.svcMean == 0 {
		s.svcMean = d
	} else {
		s.svcMean += (d - s.svcMean) / 8
	}
	s.svcMu.Unlock()
}

// retryAfter renders the shed responses' Retry-After: the observed mean
// service time scaled by the queue's depth in units of the worker pool —
// roughly when the backlog at this instant will have drained — clamped to
// [1s, 60s] (whole seconds; the header's coarsest portable form). With no
// observations yet it falls back to 1s, the old hardcoded value.
func (s *Server) retryAfter() string {
	s.svcMu.Lock()
	mean := s.svcMean
	s.svcMu.Unlock()
	if mean <= 0 {
		return "1"
	}
	depth := float64(s.waiting.Load()) + float64(len(s.sem))
	est := time.Duration((1 + depth/float64(cap(s.sem))) * float64(mean))
	secs := int64(math.Ceil(est.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return strconv.FormatInt(secs, 10)
}

// statusClientClosedRequest mirrors nginx's 499: the client closed the
// connection before the response; the code is best-effort (usually unseen).
const statusClientClosedRequest = 499

// The defaults /v1/eval and /v1/sweep apply to an omitted tech, latency
// multiplier and budget: Table 2 config #1, 1x, and the full-run
// experiment budget.
const (
	defaultTech     = 1
	defaultLatencyX = 1.0
	defaultBudget   = 40_000
)

// EvalRequest asks for one point's result: the ten axes of a SweepRequest,
// one value each. A zero field is the axis default: tech 1, latency_x 1.0,
// budget 40000 (the full-run budget), the simulator's for the other five.
type EvalRequest struct {
	Design   string  `json:"design"`
	Tech     int     `json:"tech"`
	LatencyX float64 `json:"latency_x"`
	Workload string  `json:"workload"`
	Budget   int64   `json:"budget"`
	OptionalAxes
	// AllowTruncated opts into receiving a truncated (cycle-cap-hit) result
	// as 200 instead of the default 422 error state.
	AllowTruncated bool `json:"allow_truncated"`
	// TimeoutMS caps this evaluation; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms"`
}

// EvalResponse is a point's result.
type EvalResponse struct {
	Design   string  `json:"design"`
	Workload string  `json:"workload"`
	Tech     int     `json:"tech"`
	LatencyX float64 `json:"latency_x"`
	Budget   int64   `json:"budget"`
	OptionalAxes
	IPC       float64   `json:"ipc"`
	Cycles    int64     `json:"cycles"`
	Instrs    int64     `json:"instrs"`
	Truncated bool      `json:"truncated"`
	Warps     int       `json:"warps"`
	Capacity  int       `json:"capacity_kb"`
	Stats     sim.Stats `json:"stats"`
}

// OptionalAxes are the five axes a point may leave at the simulator's
// defaults (zero values). An EvalRequest sets them, and both result records
// (EvalResponse and SweepResultRecord) echo them, each omitted at its
// default, so an answer names exactly the point it is.
type OptionalAxes struct {
	// Scheduler selects the warp scheduler ("twolevel", "static", "flat");
	// Prefetch the hardware prefetcher ("off", "stride", "cta"); CTAs the
	// resident thread blocks per SM.
	Scheduler       string `json:"scheduler,omitempty"`
	Prefetch        string `json:"prefetch,omitempty"`
	CTAs            int    `json:"ctas,omitempty"`
	RegsPerInterval int    `json:"regs_per_interval,omitempty"`
	ActiveWarps     int    `json:"active_warps,omitempty"`
}

// axesOf is p's optional axes as a result record echoes them.
func axesOf(p exp.Point) OptionalAxes {
	return OptionalAxes{
		Scheduler:       string(p.Scheduler),
		Prefetch:        p.Prefetch,
		CTAs:            p.CTAs,
		RegsPerInterval: p.RegsPerInterval,
		ActiveWarps:     p.ActiveWarps,
	}
}

// newPoint is the one point constructor of /v1/eval and /v1/sweep: it
// resolves the design and workload names against the live registries,
// applies the budget default, and returns the canonical point if
// exp.Point.Validate accepts it. It runs BEFORE admission, so bad input is
// a 400, never a burned simulation slot or a memoized failure.
func newPoint(design, workload string, tech int, latX float64, budget int64, ax OptionalAxes) (exp.Point, error) {
	desc, err := regfile.Lookup(design)
	if err != nil {
		return exp.Point{}, err
	}
	w, err := workloads.ByName(workload)
	if err != nil {
		return exp.Point{}, err
	}
	p := exp.Point{
		Design:          sim.Design(desc.Name),
		Tech:            tech,
		LatencyX:        latX,
		Workload:        w.Name,
		Unroll:          workloads.UnrollMaxwell,
		Budget:          cmp.Or(budget, defaultBudget),
		RegsPerInterval: ax.RegsPerInterval,
		ActiveWarps:     ax.ActiveWarps,
		Scheduler:       sim.Scheduler(ax.Scheduler),
		Prefetch:        ax.Prefetch,
		CTAs:            ax.CTAs,
	}
	if err := p.Validate(); err != nil {
		return exp.Point{}, err
	}
	return p, nil
}

// handleEval serves POST /v1/eval: one point, answered as its
// EvalResponse (200), the truncated 422, or the evaluation error. Every
// request runs the whole prologue (decode, validation, admission,
// deadline); a point already answered with a result is then written from
// its stored bytes without calling the engine.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	var req EvalRequest
	var pt exp.Point
	ctx, end := s.begin(w, r, &req, &req.TimeoutMS, func() (err error) {
		pt, err = newPoint(req.Design, req.Workload, cmp.Or(req.Tech, defaultTech),
			cmp.Or(req.LatencyX, defaultLatencyX), req.Budget, req.OptionalAxes)
		return err
	})
	if end == nil {
		return
	}
	defer end()

	b, err := s.bodiesFor(ctx, pt)
	if err != nil {
		s.writeEvalError(w, err)
		return
	}
	if b.truncated != nil && !req.AllowTruncated {
		writeBody(w, http.StatusUnprocessableEntity, b.truncated)
		return
	}
	writeBody(w, http.StatusOK, b.ok)
}

// evalBodies is one point's encoded /v1/eval answers. A memoized result
// never changes, and neither do these bytes.
type evalBodies struct {
	ok []byte // the 200 body
	// truncated is the 422 body a truncated result answers without
	// allow_truncated (nil when the result is not truncated). It is kept
	// beside ok rather than encoded on demand so that every repeat, 422s
	// included, skips both the engine and the encoder; only the rare
	// truncated point pays for the second body.
	truncated []byte
}

// bodiesFor returns pt's stored answers, evaluating and encoding them on
// the first request. Only a result is stored: an evaluation error is
// returned and encoded per request, as the engine reports it.
func (s *Server) bodiesFor(ctx context.Context, pt exp.Point) (*evalBodies, error) {
	if b, ok := s.bodies.Load(pt); ok {
		return b.(*evalBodies), nil
	}
	res, err := s.cfg.Engine.Eval(ctx, pt)
	if err != nil {
		return nil, err
	}
	resp := evalResponse(pt, res)
	b := &evalBodies{ok: encodeJSON(resp)}
	if res.Truncated {
		b.truncated = encodeJSON(map[string]errorBody{"error": {
			Kind:    "truncated",
			Message: "simulation hit the cycle cap before its instruction budget; stats are a lower bound (set allow_truncated to accept)",
			Result:  &resp,
		}})
	}
	stored, _ := s.bodies.LoadOrStore(pt, b)
	return stored.(*evalBodies), nil
}

func evalResponse(pt exp.Point, res *sim.Result) EvalResponse {
	return EvalResponse{
		Design:       res.Design.Name(),
		Workload:     pt.Workload,
		Tech:         pt.Tech,
		LatencyX:     pt.LatencyX,
		Budget:       pt.Budget,
		OptionalAxes: axesOf(pt),
		IPC:          res.IPC,
		Cycles:       res.Cycles,
		Instrs:       res.Instrs,
		Truncated:    res.Truncated,
		Warps:        res.Warps,
		Capacity:     res.Capacity,
		Stats:        res.Stats,
	}
}

// evalErrorBody classifies an evaluation error as the structured body both
// the unary handlers (as a whole response) and the sweep stream (as a
// per-point "error" record) carry.
func evalErrorBody(err error) errorBody {
	var pe *exp.PanicError
	switch {
	case errors.As(err, &pe):
		return errorBody{Kind: "panic", Message: pe.Error(), PanicValue: pe.Value, PanicStack: pe.Stack}
	case errors.Is(err, context.DeadlineExceeded):
		return errorBody{Kind: "timeout", Message: err.Error()}
	case errors.Is(err, context.Canceled):
		return errorBody{Kind: "cancelled", Message: err.Error()}
	default:
		return errorBody{Kind: "eval_failed", Message: err.Error()}
	}
}

func (s *Server) writeEvalError(w http.ResponseWriter, err error) {
	body := evalErrorBody(err)
	status := http.StatusInternalServerError
	switch body.Kind {
	case "timeout":
		status = http.StatusGatewayTimeout
	case "cancelled":
		status = statusClientClosedRequest
	}
	writeJSON(w, status, map[string]errorBody{"error": body})
}

// ExperimentRequest regenerates one paper artifact.
type ExperimentRequest struct {
	ID          string   `json:"id"`
	Quick       bool     `json:"quick"`
	Workloads   []string `json:"workloads,omitempty"`
	Designs     []string `json:"designs,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
	TimeoutMS   int64    `json:"timeout_ms,omitempty"`
}

// ExperimentResponse is a rendered artifact.
type ExperimentResponse struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	Text    string     `json:"text"`
}

// handleExperiment serves POST /v1/experiment: it renders one registered
// artifact on the server's engine and answers the whole table as one
// ExperimentResponse. An unknown id, design or workload is a 400.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRequest
	var spec exp.Spec
	ctx, end := s.begin(w, r, &req, &req.TimeoutMS, func() (err error) {
		if spec, err = exp.ByID(req.ID); err != nil {
			return err
		}
		for _, n := range req.Designs {
			if _, err := regfile.Lookup(n); err != nil {
				return err
			}
		}
		for _, n := range req.Workloads {
			if _, err := workloads.ByName(n); err != nil {
				return err
			}
		}
		return nil
	})
	if end == nil {
		return
	}
	defer end()

	t, err := spec.Run(exp.Options{
		Ctx:         ctx,
		Quick:       req.Quick,
		Workloads:   req.Workloads,
		Designs:     req.Designs,
		Parallelism: req.Parallelism,
		Engine:      s.cfg.Engine,
	})
	if err != nil {
		s.writeEvalError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ExperimentResponse{
		ID: t.ID, Title: t.Title, Headers: t.Headers, Rows: t.Rows, Notes: t.Notes, Text: t.String(),
	})
}

// MetaResponse describes the serving surface and its counters.
type MetaResponse struct {
	Designs     []string `json:"designs"`
	Workloads   []string `json:"workloads"`
	Experiments []string `json:"experiments"`

	Sims        int64 `json:"sims"`
	StoreHits   int64 `json:"store_hits"`
	StoreErrors int64 `json:"store_errors"`
	Failures    int64 `json:"failures"`

	Store *StoreMeta `json:"store,omitempty"`

	InFlight int64 `json:"in_flight"`
	Waiting  int64 `json:"waiting"`
	Shed429  int64 `json:"shed_429"`
	Shed503  int64 `json:"shed_503"`
	Draining bool  `json:"draining"`
	// MeanServiceMS is the exponentially-weighted mean request service time
	// the shed responses' Retry-After is derived from (0 until observed).
	MeanServiceMS float64 `json:"mean_service_ms"`
}

// StoreMeta is the persistent store's counter view (absent without one).
type StoreMeta struct {
	Dir         string `json:"dir"`
	Hits        int64  `json:"hits"`
	Misses      int64  `json:"misses"`
	Puts        int64  `json:"puts"`
	Quarantined int64  `json:"quarantined"`
	Retries     int64  `json:"retries"`

	// Per-point lease protocol counters (cross-replica cold-point
	// coalescing): exclusive claims won, waits on another replica's live
	// lease, and stale leases taken over past their deadline.
	LeasesAcquired int64 `json:"leases_acquired"`
	LeaseWaits     int64 `json:"lease_waits"`
	LeaseTakeovers int64 `json:"lease_takeovers"`
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	var exps []string
	for _, spec := range exp.Registry() {
		exps = append(exps, spec.ID)
	}
	eng := s.cfg.Engine
	meta := MetaResponse{
		Designs:     regfile.Names(),
		Workloads:   workloads.Names(),
		Experiments: exps,
		Sims:        eng.Sims(),
		StoreHits:   eng.StoreHits(),
		StoreErrors: eng.StoreErrors(),
		Failures:    eng.Failures(),
		InFlight:    int64(len(s.sem)),
		Waiting:     s.waiting.Load(),
		Shed429:     s.shed429.Load(),
		Shed503:     s.shed503.Load(),
		Draining:    s.draining.Load(),
	}
	s.svcMu.Lock()
	meta.MeanServiceMS = float64(s.svcMean) / float64(time.Millisecond)
	s.svcMu.Unlock()
	if st := eng.Store(); st != nil {
		meta.Store = &StoreMeta{
			Dir:            st.Dir(),
			Hits:           st.Hits(),
			Misses:         st.Misses(),
			Puts:           st.Puts(),
			Quarantined:    st.Quarantined(),
			Retries:        st.Retries(),
			LeasesAcquired: st.LeasesAcquired(),
			LeaseWaits:     st.LeaseWaits(),
			LeaseTakeovers: st.LeaseTakeovers(),
		}
	}
	writeJSON(w, http.StatusOK, meta)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, http.StatusServiceUnavailable, "draining", "shutting down")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
