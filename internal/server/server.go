// Package server wraps the query Session — the one evaluation path shared
// with the yieldlab facade and the cnfetyield CLI — in a long-lived
// HTTP/JSON service: the paper's "what is pF(W) / Wmin / row yield under
// this growth scenario?" questions as cheap, repeatable endpoints instead
// of one-shot CLI runs.
//
// Endpoints (all JSON):
//
//	GET  /healthz                 liveness
//	GET  /metrics                 Prometheus-text service metrics
//	GET  /v1/corners              the Fig. 2.1 processing corners
//	GET  /v1/pf                   device failure probability pF(W)
//	POST /v1/pf/batch             many (width, corner) points in one call
//	GET  /v1/wmin                 chip-level minimum width (Eq. 2.5)
//	GET  /v1/rowyield             row failure probability per scenario
//	POST /v2/query                declarative QuerySpec: single or sweep,
//	                              sync or job-backed (?async=1)
//	POST /v1/experiments          submit an experiment job → job id
//	GET  /v1/jobs/{id}            job status and (partial) results
//	GET  /v1/stats                cache hit rates, sweeps, jobs in flight
//
// Every /v1 evaluation endpoint is a thin translation onto a QuerySpec
// (internal/query) evaluated by the shared Session, so /v1 answers are
// byte-identical to their /v2/query counterparts and all endpoints share
// one validation/evaluation/encoding path. Deterministic GETs carry an
// ETag derived from the spec's canonical fingerprint and honor
// If-None-Match with 304. POST /v1/experiments is a translation too: its
// {experiments, seed} body becomes an experiment QuerySpec submitted as a
// job exactly like /v2/query?async=1, only rendered in the experiments-job
// form. /v1/stats and /metrics render one stats snapshot. Errors use one
// envelope: {"error": {"code", "message"}} — including 404/405 on unknown
// paths.
//
// Request cost is dominated by cold renewal sweeps; three layers keep them
// rare: renewal.SweepCache shares swept tables across corners and requests,
// identical concurrent computations are deduplicated singleflight-style on
// top of it, and an optional sweepstore directory persists the tables so a
// restarted server (or a parallel process) warms instantly.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/cnfet/yieldlab/internal/buildinfo"
	"github.com/cnfet/yieldlab/internal/device"
	"github.com/cnfet/yieldlab/internal/experiments"
	"github.com/cnfet/yieldlab/internal/fault"
	"github.com/cnfet/yieldlab/internal/jobstore"
	"github.com/cnfet/yieldlab/internal/obs"
	"github.com/cnfet/yieldlab/internal/query"
	"github.com/cnfet/yieldlab/internal/renewal"
	"github.com/cnfet/yieldlab/internal/sweepstore"
)

// Defaults for Config zero values.
const (
	DefaultCacheEntries   = 64
	DefaultMaxJobs        = 64
	DefaultConcurrentJobs = 2
	DefaultBatchLimit     = 4096
	DefaultRowRounds      = query.DefaultRowRounds
	// DefaultMaxRowRounds covers the adaptive estimators' default round cap:
	// a rare-event request that names no explicit budget resolves to
	// query.DefaultAdaptiveRounds, and the limit must not reject the
	// service's own default.
	DefaultMaxRowRounds = query.DefaultAdaptiveRounds
	// DefaultMaxInFlightSweeps bounds synchronous /v2/query sweeps computing
	// at once before the server sheds load with a retryable 503.
	DefaultMaxInFlightSweeps = 32
	// Transient sweep-store write failures are retried with jittered
	// exponential backoff: storeRetryAttempts total tries, storeRetryBase
	// before the first retry.
	storeRetryAttempts = 3
	storeRetryBase     = 2 * time.Millisecond
)

// Config configures a Server.
type Config struct {
	// Params is the experiment configuration jobs run under and the source
	// of the device grid (step, max width). Zero value = DefaultParams.
	Params experiments.Params
	// Store, when non-nil, persists swept renewal tables: warmed from at
	// startup, written back after new sweeps and on Close. The server arms
	// the store's transient-write retry loop.
	Store *sweepstore.Store
	// Jobs, when non-nil, journals async jobs so a restarted server
	// re-adopts them: terminal jobs return as served history, open jobs are
	// resumed from their last checkpointed result prefix.
	Jobs *jobstore.Store
	// CacheEntries bounds the sweep cache (0 = DefaultCacheEntries).
	CacheEntries int
	// MaxJobs bounds the retained job history (0 = DefaultMaxJobs).
	MaxJobs int
	// ConcurrentJobs bounds jobs computing at once (0 = DefaultConcurrentJobs).
	ConcurrentJobs int
	// BatchLimit caps points per /v1/pf/batch request and concrete specs per
	// /v2/query sweep (0 = DefaultBatchLimit).
	BatchLimit int
	// MaxRowRounds caps Monte Carlo rounds a rowyield request may ask for
	// (0 = DefaultMaxRowRounds).
	MaxRowRounds int
	// RequestTimeout bounds each request's handling time: the request
	// context gets this deadline, and an evaluation that exceeds it answers
	// with a retryable 503 (0 = no deadline).
	RequestTimeout time.Duration
	// MaxInFlightSweeps bounds synchronous /v2/query sweeps computing at
	// once; excess requests are shed with a retryable 503 and Retry-After
	// while ETag revalidations still answer 304
	// (0 = DefaultMaxInFlightSweeps, negative = unbounded).
	MaxInFlightSweeps int
	// Logger receives one structured line per request (nil = discard, which
	// keeps tests and embedded uses quiet).
	Logger *slog.Logger
	// SlowLogEntries bounds the /debug/slowlog ring
	// (0 = obs.DefaultSlowLogEntries).
	SlowLogEntries int
	// SlowLogThreshold is the slowlog recording cutoff
	// (0 = obs.DefaultSlowLogThreshold; negative records every request).
	SlowLogThreshold time.Duration
}

// Server is the HTTP yield service. Create with New, serve Handler, and
// Close on shutdown to drain jobs and persist the sweep store.
type Server struct {
	cfg     Config
	params  experiments.Params
	session *query.Session
	cache   *renewal.SweepCache
	flight  flightGroup
	jobs    *jobEngine
	mux     *http.ServeMux
	metrics *metricsRegistry
	slowlog *obs.SlowLog
	logger  *slog.Logger
	start   time.Time
	// ridPrefix and reqSeq generate X-Request-ID correlation ids: a
	// start-time prefix distinguishing restarts plus a process sequence.
	ridPrefix string
	reqSeq    atomic.Uint64
	// paramsTag fingerprints the server's parameter set; ETags combine it
	// with each spec's canonical fingerprint so two servers with different
	// grids or seeds can never validate each other's cached responses.
	paramsTag string
	// inflight bounds synchronous sweep evaluations (nil = unbounded);
	// shed counts requests refused at that bound.
	inflight chan struct{}
	shed     atomic.Uint64
}

// New builds a server, warming the sweep cache from cfg.Store when present.
func New(cfg Config) (*Server, error) {
	if (cfg.Params == experiments.Params{}) {
		cfg.Params = experiments.DefaultParams()
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.MaxJobs == 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.ConcurrentJobs == 0 {
		cfg.ConcurrentJobs = DefaultConcurrentJobs
	}
	if cfg.BatchLimit == 0 {
		cfg.BatchLimit = DefaultBatchLimit
	}
	if cfg.MaxRowRounds == 0 {
		cfg.MaxRowRounds = DefaultMaxRowRounds
	}
	if cfg.MaxInFlightSweeps == 0 {
		cfg.MaxInFlightSweeps = DefaultMaxInFlightSweeps
	}
	if cfg.Store != nil {
		// A long-lived server rides out transient store-write failures
		// instead of dropping the snapshot on the first error.
		cfg.Store.SetRetry(storeRetryAttempts, storeRetryBase)
	}
	session, err := query.NewSession(query.Options{
		Params:       cfg.Params,
		Store:        cfg.Store,
		Workers:      cfg.Params.Workers,
		MaxRowRounds: cfg.MaxRowRounds,
		MaxSweep:     cfg.BatchLimit,
	})
	if err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:       cfg,
		params:    cfg.Params,
		session:   session,
		cache:     session.Cache(),
		metrics:   newMetricsRegistry(),
		slowlog:   obs.NewSlowLog(cfg.SlowLogEntries, cfg.SlowLogThreshold),
		logger:    logger,
		start:     time.Now(),
		paramsTag: paramsTag(cfg.Params),
	}
	s.ridPrefix = fmt.Sprintf("%08x", uint32(s.start.UnixNano()))
	s.cache.SetMaxEntries(cfg.CacheEntries)
	if cfg.MaxInFlightSweeps > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlightSweeps)
	}
	s.jobs = newJobEngine(session, cfg.MaxJobs, cfg.ConcurrentJobs, cfg.Jobs)
	if resumed, err := s.jobs.adopt(); err != nil {
		session.Close()
		return nil, fmt.Errorf("adopting job journal: %w", err)
	} else if resumed > 0 {
		logger.Info("resumed journaled jobs", slog.Int("jobs", resumed))
	}
	s.routes()
	return s, nil
}

// paramsTag hashes the parameter set into a short response-identity prefix.
func paramsTag(p experiments.Params) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", p)))
	return hex.EncodeToString(sum[:6])
}

// Session exposes the server's shared query session.
func (s *Server) Session() *query.Session { return s.session }

// Handler returns the service's HTTP handler: the route mux wrapped in the
// JSON 404/405 fallback and the observability middleware (per-request
// tracing, metrics, slowlog, structured log).
func (s *Server) Handler() http.Handler {
	return s.withObs(s.withJSONFallback())
}

// Close drains running jobs and persists the sweep cache.
func (s *Server) Close() error {
	s.jobs.drain()
	return s.session.Close()
}

// Shutdown is Close with a drain deadline: it waits up to d for running
// jobs, then persists the sweep cache regardless. Jobs still running at
// the deadline are abandoned in this process but stay journaled, so the
// next start re-adopts and resumes them — exactly the crash-recovery
// path, entered deliberately. d <= 0 waits indefinitely, like Close.
func (s *Server) Shutdown(d time.Duration) error {
	if d <= 0 {
		return s.Close()
	}
	if !s.jobs.drainTimeout(d) {
		s.logger.Warn("shutdown drain deadline exceeded; open jobs will resume on next start",
			slog.Duration("deadline", d))
	}
	return s.session.Close()
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/corners", s.handleCorners)
	s.mux.HandleFunc("GET /v1/pf", s.handleV1(s.pfSpec, func(res query.Result) any { return res.PF }))
	s.mux.HandleFunc("POST /v1/pf/batch", s.handlePFBatch)
	s.mux.HandleFunc("GET /v1/wmin", s.handleV1(s.wminSpec, func(res query.Result) any { return res.Wmin }))
	s.mux.HandleFunc("GET /v1/rowyield", s.handleV1(s.rowYieldSpec, func(res query.Result) any { return res.RowYield }))
	s.mux.HandleFunc("POST /v2/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /debug/slowlog", s.handleSlowlog)
}

// --- corners ---------------------------------------------------------------

// CornerJSON is the wire form of a processing corner.
type CornerJSON struct {
	Name  string  `json:"name"`
	Label string  `json:"label"`
	PM    float64 `json:"pm"`
	PRS   float64 `json:"prs"`
	// PF is the per-CNT failure probability pf = pm + (1-pm)·pRs (Eq. 2.1).
	PF float64 `json:"pf"`
}

// cornerNames maps the API names onto the Fig. 2.1 corners, worst first.
var cornerNames = query.CornerNames()

func corners() []CornerJSON {
	paper := device.PaperCorners()
	out := make([]CornerJSON, len(paper))
	for i, c := range paper {
		out[i] = CornerJSON{
			Name:  cornerNames[i],
			Label: c.Name,
			PM:    c.Params.PMetallic,
			PRS:   c.Params.PRemoveSemi,
			PF:    c.Params.PerCNTFailure(),
		}
	}
	return out
}

// cornerSpec fills the spec's corner fields from query-string values: a
// named corner, or explicit pm/prs overrides.
func cornerSpec(spec *query.Spec, q url.Values) error {
	name, pmStr, prsStr := q.Get("corner"), q.Get("pm"), q.Get("prs")
	if pmStr == "" && prsStr == "" {
		spec.Corner = name
		return nil
	}
	if name != "" {
		return errors.New("give either corner or pm/prs, not both")
	}
	pm, err := parseFloat("pm", pmStr)
	if err != nil {
		return err
	}
	prs, err := parseFloat("prs", prsStr)
	if err != nil {
		return err
	}
	spec.PM, spec.PRS = &pm, &prs
	return nil
}

// deviceModel builds (or fetches) the shared failure model for a corner on
// the server's grid. Concurrent first calls collapse onto one build.
func (s *Server) deviceModel(p device.FailureParams) (*device.FailureModel, error) {
	key := fmt.Sprintf("model|%x|%x", math.Float64bits(p.PMetallic), math.Float64bits(p.PRemoveSemi))
	v, err := s.flight.do(key, func() (any, error) {
		return device.NewCalibratedModelWith(s.cache, p,
			renewal.WithStep(s.params.GridStepNM), renewal.WithMaxWidth(s.params.MaxWidthNM))
	})
	if err != nil {
		return nil, err
	}
	return v.(*device.FailureModel), nil
}

// --- caching headers -------------------------------------------------------

// etagFor derives the response ETag of a canonical spec fingerprint.
func (s *Server) etagFor(fp string) string {
	return `"` + s.paramsTag + "-" + fp + `"`
}

// notModified reports whether the request's If-None-Match matches the ETag,
// in which case a 304 has been written.
func notModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	match := r.Header.Get("If-None-Match")
	if match == "" {
		return false
	}
	for _, candidate := range strings.Split(match, ",") {
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == etag || candidate == "*" {
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			return true
		}
	}
	return false
}

// setCacheHeaders marks a deterministic response as cacheable. Every
// computation behind these endpoints is a pure function of (params, spec) —
// Monte Carlo estimates included, since their seeds are fixed — so
// revalidation by ETag is sound.
func setCacheHeaders(w http.ResponseWriter, etag string) {
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=86400")
}

// --- handlers --------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	info := buildinfo.Get()
	writeJSON(w, http.StatusOK, map[string]string{
		"status":     "ok",
		"version":    buildinfo.Version(),
		"go_version": info.GoVersion,
	})
}

func (s *Server) handleCorners(w http.ResponseWriter, r *http.Request) {
	etag := s.etagFor("corners")
	if notModified(w, r, etag) {
		return
	}
	setCacheHeaders(w, etag)
	writeJSON(w, http.StatusOK, map[string]any{"corners": corners()})
}

// PFJSON is one device failure probability evaluation — the /v1 wire name
// of the shared query result payload.
type PFJSON = query.PFResult

// handleV1 builds a /v1 evaluation GET from its parameter→Spec translation
// and the result payload it answers with. The handler canonicalises the
// spec once, answers a matching If-None-Match with 304, evaluates through
// the flight group keyed by the fingerprint (identical concurrent requests
// share one evaluation), checkpoints new sweeps and writes the payload.
func (s *Server) handleV1(parse func(url.Values) (query.Spec, error), payload func(query.Result) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		spec, err := parse(r.URL.Query())
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		canon, fp, err := spec.Canonical()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		etag := s.etagFor(fp)
		if notModified(w, r, etag) {
			return
		}
		v, err := s.flight.do(fp, func() (any, error) {
			return s.session.Evaluate(r.Context(), canon)
		})
		if err != nil {
			writeEvalError(w, err)
			return
		}
		defer s.session.Checkpoint()
		setCacheHeaders(w, etag)
		writeJSON(w, http.StatusOK, payload(v.(query.Result)))
	}
}

// pfSpec translates /v1/pf parameters: corner, width, node.
func (s *Server) pfSpec(q url.Values) (query.Spec, error) {
	spec := query.Spec{Kind: query.KindPF, Node: q.Get("node")}
	if err := cornerSpec(&spec, q); err != nil {
		return spec, err
	}
	var err error
	spec.WidthNM, err = s.parseWidth(q.Get("width"))
	return spec, err
}

// BatchPointJSON is one requested (corner, width) evaluation.
type BatchPointJSON struct {
	Corner  string   `json:"corner,omitempty"`
	PM      *float64 `json:"pm,omitempty"`
	PRS     *float64 `json:"prs,omitempty"`
	WidthNM float64  `json:"width_nm"`
}

func (s *Server) handlePFBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Points []BatchPointJSON `json:"points"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	if len(req.Points) > s.cfg.BatchLimit {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d points exceeds limit %d", len(req.Points), s.cfg.BatchLimit))
		return
	}
	// Group the points per corner so each distinct model serves all its
	// widths in one batched sweep, then scatter results back in input order.
	type group struct {
		params device.FailureParams
		name   string
		idxs   []int
		widths []float64
	}
	groups := make(map[string]*group)
	out := make([]PFJSON, len(req.Points))
	for i, pt := range req.Points {
		spec := query.Spec{Kind: query.KindPF, Corner: pt.Corner, PM: pt.PM, PRS: pt.PRS}
		if pt.Corner != "" && (pt.PM != nil || pt.PRS != nil) {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("point %d: give either corner or pm/prs, not both", i))
			return
		}
		params, cornerName, err := spec.FailureParams()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("point %d: %w", i, err))
			return
		}
		width, err := s.parseWidth(strconv.FormatFloat(pt.WidthNM, 'g', -1, 64))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("point %d: %w", i, err))
			return
		}
		g, ok := groups[cornerName]
		if !ok {
			g = &group{params: params, name: cornerName}
			groups[cornerName] = g
		}
		g.idxs = append(g.idxs, i)
		g.widths = append(g.widths, width)
	}
	for _, g := range groups {
		m, err := s.deviceModel(g.params)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		pfs, err := m.FailureProbs(g.widths)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		for k, idx := range g.idxs {
			out[idx] = PFJSON{Corner: g.name, WidthNM: g.widths[k], PFCNT: m.PerCNTFailure(), PF: pfs[k]}
		}
	}
	defer s.session.Checkpoint()
	writeJSON(w, http.StatusOK, map[string]any{"results": out})
}

// WminJSON is one chip-level sizing solution — the /v1 wire name of the
// shared query result payload.
type WminJSON = query.WminResult

// wminSpec translates /v1/wmin parameters: corner, relax, m, yield, node.
// Only explicitly given parameters enter the spec: the session resolves the
// defaults, so an unqualified /v1 request canonicalizes to the same
// fingerprint (and ETag) as its zero-valued /v2 spec.
func (s *Server) wminSpec(q url.Values) (query.Spec, error) {
	spec := query.Spec{Kind: query.KindWmin, Node: q.Get("node")}
	if err := cornerSpec(&spec, q); err != nil {
		return spec, err
	}
	return spec, errors.Join(
		optFloat(q, "relax", &spec.RelaxFactor),
		optFloat(q, "m", &spec.M),
		optFloat(q, "yield", &spec.DesiredYield))
}

// RowYieldJSON is one row-correlation scenario evaluation — the /v1 wire
// name of the shared query result payload.
type RowYieldJSON = query.RowYieldResult

// rowYieldSpec translates /v1/rowyield parameters: corner, scenario, width,
// rounds, mc_method, rel_err, krows, node. The session computes the Eq. 3.1
// chip yield for krows, so the fingerprint — ETag and dedup key alike —
// covers the full request.
func (s *Server) rowYieldSpec(q url.Values) (query.Spec, error) {
	spec := query.Spec{Kind: query.KindRowYield, Scenario: q.Get("scenario"),
		MCMethod: q.Get("mc_method"), Node: q.Get("node")}
	if err := cornerSpec(&spec, q); err != nil {
		return spec, err
	}
	var err error
	if spec.WidthNM, err = s.parseWidth(q.Get("width")); err != nil {
		return spec, err
	}
	if v := q.Get("rounds"); v != "" {
		if spec.Rounds, err = strconv.Atoi(v); err != nil || spec.Rounds < 2 {
			return spec, fmt.Errorf("rounds %q must be an integer ≥ 2", v)
		}
	}
	return spec, errors.Join(
		optFloat(q, "rel_err", &spec.RelErrTarget),
		optFloat(q, "krows", &spec.KRows))
}

// --- /v2/query -------------------------------------------------------------

// QueryResponseJSON is the /v2/query sync response: the canonical sweep
// fingerprint and one result per concrete spec, in expansion order.
type QueryResponseJSON struct {
	Fingerprint string         `json:"fingerprint"`
	Count       int            `json:"count"`
	Results     []query.Result `json:"results"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var spec query.Spec
	if err := decodeBody(r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	canon, fp, err := spec.Canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if n := canon.ExpandCount(); n > s.cfg.BatchLimit {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sweep of %d specs exceeds limit %d", n, s.cfg.BatchLimit))
		return
	}

	if isAsync(r) {
		s.submitJob(w, r, JobKindQuery, canon, fp)
		return
	}

	// Revalidation is answered before the in-flight bound: a 304 costs
	// nothing, so clients holding a previous response keep getting answers
	// even while cold work is being shed.
	etag := s.etagFor(fp)
	if notModified(w, r, etag) {
		return
	}
	release, ok := s.acquireSweep()
	if !ok {
		writeUnavailable(w, fmt.Errorf("sweep capacity reached (%d in flight), retry later", cap(s.inflight)))
		return
	}
	defer release()
	results, err := s.session.EvaluateAll(r.Context(), canon)
	if err != nil {
		writeEvalError(w, err)
		return
	}
	defer s.session.Checkpoint()
	w.Header().Set("ETag", etag)
	writeJSON(w, http.StatusOK, QueryResponseJSON{Fingerprint: fp, Count: len(results), Results: results})
}

// acquireSweep reserves a synchronous-sweep slot, reporting false (and
// counting a shed) when the server is saturated.
func (s *Server) acquireSweep() (release func(), ok bool) {
	if s.inflight == nil {
		return func() {}, true
	}
	select {
	case s.inflight <- struct{}{}:
		return func() { <-s.inflight }, true
	default:
		s.shed.Add(1)
		return nil, false
	}
}

// isAsync reports whether the request asked for job-backed execution.
func isAsync(r *http.Request) bool {
	switch strings.ToLower(r.URL.Query().Get("async")) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// --- experiment jobs -------------------------------------------------------

// ExperimentRequestJSON submits an experiments job.
type ExperimentRequestJSON struct {
	// Experiments lists experiment names; ["all"] expands to the paper set.
	Experiments []string `json:"experiments"`
	// Seed overrides the Monte Carlo root seed (0 = server default).
	Seed uint64 `json:"seed,omitempty"`
}

// handleExperiments translates the request onto an experiment QuerySpec
// and submits it as a job rendered in the experiments-job form.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRequestJSON
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec := query.Spec{Kind: query.KindExperiment, Experiments: req.Experiments, Seed: req.Seed}
	canon, fp, err := spec.Canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.submitJob(w, r, JobKindExperiments, canon, fp)
}

// submitJob queues a canonical spec as a job rendered as kind and answers
// 202 with the job and its Location, or a retryable 503 when the queue is
// full.
func (s *Server) submitJob(w http.ResponseWriter, r *http.Request, kind string, canon query.Spec, fp string) {
	job, err := s.jobs.submitQuery(r.Context(), kind, canon, fp)
	if err != nil {
		writeUnavailable(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// --- stats and metrics -----------------------------------------------------

// StatsJSON is the /v1/stats payload.
type StatsJSON struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	SweepCache    struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
		Entries   int    `json:"entries"`
		Sweeps    uint64 `json:"sweeps"`
	} `json:"sweep_cache"`
	DedupedRequests uint64 `json:"deduped_requests"`
	// ShedRequests counts synchronous sweeps refused at the in-flight bound
	// with a retryable 503.
	ShedRequests uint64            `json:"shed_requests"`
	Jobs         map[string]int    `json:"jobs"`
	Store        *StoreStatsJSON   `json:"store,omitempty"`
	Journal      *JournalStatsJSON `json:"job_journal,omitempty"`
	// Faults lists armed fault-injection sites and their firing counts;
	// absent in normal operation (the registry is disarmed).
	Faults []fault.SiteStats `json:"faults,omitempty"`
}

// StoreStatsJSON reports sweep-store traffic.
type StoreStatsJSON struct {
	Dir     string `json:"dir"`
	Saves   uint64 `json:"saves"`
	Loads   uint64 `json:"loads"`
	Rejects uint64 `json:"rejects"`
	// Quarantined counts corrupt snapshot files renamed aside to .bad;
	// Retries counts save attempts repeated after transient failures.
	Quarantined uint64 `json:"quarantined"`
	Retries     uint64 `json:"retries"`
	// LastPersistError is the most recent cache-persistence failure, empty
	// once a later persist succeeds.
	LastPersistError string `json:"last_persist_error,omitempty"`
}

// JournalStatsJSON reports job-journal traffic and health.
type JournalStatsJSON struct {
	Dir         string `json:"dir"`
	Puts        uint64 `json:"puts"`
	Loads       uint64 `json:"loads"`
	Quarantined uint64 `json:"quarantined"`
	PutErrors   uint64 `json:"put_errors"`
	// EngineErrors counts journal failures seen by the job engine (a
	// superset view: failed puts, deletes and undecodable records);
	// LastError is the most recent one.
	EngineErrors uint64 `json:"engine_errors"`
	LastError    string `json:"last_error,omitempty"`
}

// stats takes the one point-in-time snapshot that /v1/stats and /metrics
// both render, so the two surfaces cannot disagree.
func (s *Server) stats() StatsJSON {
	var out StatsJSON
	out.UptimeSeconds = time.Since(s.start).Seconds()
	cs := s.cache.Stats()
	out.SweepCache.Hits = cs.Hits
	out.SweepCache.Misses = cs.Misses
	out.SweepCache.Evictions = cs.Evictions
	out.SweepCache.Entries = cs.Entries
	out.SweepCache.Sweeps = cs.Sweeps
	out.DedupedRequests = s.flight.sharedCount()
	out.ShedRequests = s.shed.Load()
	out.Jobs = s.jobs.counts()
	if store := s.session.Store(); store != nil {
		st := store.Stats()
		out.Store = &StoreStatsJSON{
			Dir: store.Dir(), Saves: st.Saves, Loads: st.Loads, Rejects: st.Rejects,
			Quarantined: st.Quarantined, Retries: st.Retries,
			LastPersistError: s.session.LastPersistError(),
		}
	}
	if s.cfg.Jobs != nil {
		jst := s.cfg.Jobs.Stats()
		errs, last := s.jobs.journalStats()
		out.Journal = &JournalStatsJSON{
			Dir: s.cfg.Jobs.Dir(), Puts: jst.Puts, Loads: jst.Loads,
			Quarantined: jst.Quarantined, PutErrors: jst.PutErrors,
			EngineErrors: errs, LastError: last,
		}
	}
	out.Faults = fault.Stats()
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.write(w, s.stats(), buildinfo.Get())
}

// SlowLogJSON is the /debug/slowlog payload.
type SlowLogJSON struct {
	// ThresholdMS is the recording cutoff (0 = every request is recorded).
	ThresholdMS float64 `json:"threshold_ms"`
	// Capacity is the ring size; the newest Capacity slow requests are kept.
	Capacity int `json:"capacity"`
	// Observed and Recorded count requests seen and requests that cleared
	// the threshold over the server's lifetime.
	Observed uint64 `json:"observed"`
	Recorded uint64 `json:"recorded"`
	// Entries lists the retained slow requests, newest first.
	Entries []obs.SlowEntry `json:"entries"`
}

func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	observed, recorded := s.slowlog.Counts()
	entries := s.slowlog.Entries()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	writeJSON(w, http.StatusOK, SlowLogJSON{
		ThresholdMS: float64(s.slowlog.Threshold()) / float64(time.Millisecond),
		Capacity:    s.slowlog.Capacity(),
		Observed:    observed,
		Recorded:    recorded,
		Entries:     entries,
	})
}

// --- middleware ------------------------------------------------------------

// withJSONFallback answers requests no route matches with the JSON error
// envelope instead of the mux's plain-text defaults: 405 (with the Allow
// header preserved) when the path exists under another method, 404
// otherwise.
func (s *Server) withJSONFallback() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, pattern := s.mux.Handler(r); pattern != "" {
			s.mux.ServeHTTP(w, r)
			return
		}
		// Replay against a recorder to learn whether the mux default is a
		// 404 or a 405, without letting its plain-text body escape.
		rec := &headerRecorder{header: make(http.Header)}
		s.mux.ServeHTTP(rec, r)
		switch rec.status {
		case http.StatusMethodNotAllowed:
			if allow := rec.header.Get("Allow"); allow != "" {
				w.Header().Set("Allow", allow)
			}
			writeError(w, http.StatusMethodNotAllowed,
				fmt.Errorf("method %s not allowed for %s", r.Method, r.URL.Path))
		default:
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown path %s", r.URL.Path))
		}
	})
}

// headerRecorder captures a handler's status and headers, discarding the body.
type headerRecorder struct {
	header http.Header
	status int
}

func (rec *headerRecorder) Header() http.Header { return rec.header }
func (rec *headerRecorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
}
func (rec *headerRecorder) Write(b []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return len(b), nil
}

// --- helpers ---------------------------------------------------------------

func (s *Server) parseWidth(v string) (float64, error) {
	if v == "" {
		return 0, errors.New("missing width parameter (nm)")
	}
	width, err := parseFloat("width", v)
	if err != nil {
		return 0, err
	}
	if !(width > 0) || width > s.params.MaxWidthNM {
		return 0, fmt.Errorf("width %g nm out of (0, %g]", width, s.params.MaxWidthNM)
	}
	return width, nil
}

func parseFloat(name, v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("parameter %s=%q is not a finite number", name, v)
	}
	return f, nil
}

// optFloat parses the optional parameter name into dst, leaving dst
// untouched when the parameter is absent.
func optFloat(q url.Values, name string, dst *float64) error {
	v := q.Get(name)
	if v == "" {
		return nil
	}
	f, err := parseFloat(name, v)
	if err == nil {
		*dst = f
	}
	return err
}

// decodeBody strictly decodes a bounded JSON body.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ErrorJSON is the error envelope of every endpoint:
// {"error": {"code": "...", "message": "..."}}.
type ErrorJSON struct {
	Error ErrorBodyJSON `json:"error"`
}

// ErrorBodyJSON carries one error. Retryable marks conditions that clear
// on their own (queue full, load shed, deadline exceeded): the client
// should retry after the Retry-After hint, with backoff.
type ErrorBodyJSON struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable,omitempty"`
}

// errorCode maps an HTTP status onto the envelope's stable machine code.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorJSON{Error: ErrorBodyJSON{Code: errorCode(status), Message: err.Error()}})
}

// writeUnavailable answers an overload rejection — queue full, sweep
// capacity reached, deadline exceeded — with a retryable 503 and a
// Retry-After hint: the condition clears as soon as in-flight work
// finishes, so the client should come back, not give up.
func writeUnavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, ErrorJSON{Error: ErrorBodyJSON{
		Code: errorCode(http.StatusServiceUnavailable), Message: err.Error(), Retryable: true,
	}})
}

// writeEvalError classifies a session evaluation failure: caller mistakes
// (invalid or out-of-bounds specs) are 400s, a request-deadline expiry is
// a retryable 503, everything else — sweep or model failures the client
// did nothing to cause — is a 500.
func writeEvalError(w http.ResponseWriter, err error) {
	switch {
	case query.IsRequestError(err):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeUnavailable(w, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}
