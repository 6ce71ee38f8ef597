// Package serve is the fleet recompile service behind cmd/polynimad: a
// long-running HTTP daemon that wraps core.Project over a single shared
// store.Tiered, so the memory tier — not just the disk tier — stays warm
// across requests, and a farm of workers pointing at one daemon shares one
// warm artifact store.
//
// Job endpoints (the request body is always a marshaled PXE image):
//
//	POST /v1/recompile[?trace=1&prune=1&seed=N&target=mx64|mx64w]
//	                                              -> recompiled image bytes
//	POST /v1/trace[?seed=N]                       -> ICFT session summary (JSON)
//	POST /v1/additive[?seed=N&maxloops=N]         -> additive session result (JSON)
//
// An optional concrete input for the traced/additive runs rides in the
// X-Polynima-Input header, base64-encoded.
//
// Store endpoints — the wire protocol store.Remote speaks, serving the
// daemon's shared tiered store as a content-addressed blob service:
//
//	GET /store/v1/{ns}/{key}   -> framed entry (store.EncodeFrame) or 404
//	PUT /store/v1/{ns}/{key}   -> 204; body must be a valid frame (else 400)
//
// Every stored byte a client PUTs is promoted into the daemon's memory
// tier, so the whole fleet warms the daemon and the daemon warms the fleet.
// The degradation contract is the client's (store.Remote): nothing this
// server does — crash, restart, corruption, pruning — can change a
// client's recompiled bytes; at worst a client recomputes.
//
// Operational endpoints: GET /metrics (Prometheus text format: per-job and
// per-store-request counters, latency histograms, Go runtime gauges, build
// info, plus the shared store's per-tier ops), GET /healthz (503 once a
// drain has begun, so load balancers stop routing to a dying daemon), and
// /debug/pprof/* (gated behind the bearer token when one is configured).
//
// Fleet observability (log.go, DESIGN.md §6): every request resolves a W3C
// trace position — a valid `traceparent` header joins the client's trace,
// anything else starts one — answered as X-Polynima-Trace-Id, tagged onto
// the job span (and store-op instants) in the daemon's span trace, and
// carried in the structured access log, so a slow job can be followed
// client → daemon → chained upstream store through one trace id. Latency
// distributions are exported as Prometheus histograms: job duration by
// kind and outcome, admission queue wait by class, and per-tier store op
// latency via store.LatencyObserver.
//
// Production posture (admission.go, DESIGN.md §7): optional bearer-token
// authn (401 on mismatch; /metrics and /healthz stay open), separate
// bounded concurrency limits for jobs and store blobs that shed overload as
// 429 + Retry-After, per-client token-bucket quotas, and request-context
// cancellation — a client that disconnects mid-job has its pipeline
// cancelled and its worker slot freed. None of it touches the byte-identity
// contract: an admitted job's response bytes are identical at any
// concurrency limit.
package serve

import (
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/mx"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/store"
)

// Config assembles a Server.
type Config struct {
	// Opts is the base project options for every job; per-request query
	// parameters override the seed. SharedStore/Store/Obs are managed by
	// the server and overwritten.
	Opts core.Options
	// Backing is the optional persistent tier (disk, remote, or a chain)
	// composed under the shared memory tier.
	Backing store.Store
	// Tracer, when set, records one span per job plus the usual pipeline
	// spans (written out by cmd/polynimad at shutdown).
	Tracer *obs.Tracer
	// MaxBodyBytes bounds request bodies; 0 selects 256 MiB.
	MaxBodyBytes int64
	// AuthToken, when non-empty, requires every job and store request to
	// present "Authorization: Bearer <token>"; mismatches are answered 401.
	// /metrics and /healthz stay unauthenticated.
	AuthToken string
	// MaxInflightJobs caps concurrently executing jobs (0 = unlimited);
	// MaxQueueJobs bounds how many over-limit job requests wait for a slot
	// instead of being shed as 429 (0 = no queue, shed immediately).
	MaxInflightJobs int
	MaxQueueJobs    int
	// MaxInflightStore / MaxQueueStore are the same knobs for /store/v1/*
	// blob requests, limited separately so a burst of cheap blob traffic
	// cannot starve jobs and vice versa.
	MaxInflightStore int
	MaxQueueStore    int
	// QuotaRPS enables per-client token-bucket quotas: each client (keyed
	// by token digest, or remote host when auth is off) may sustain this
	// many requests per second (0 = no quotas). QuotaBurst is the bucket
	// capacity (0 = 2*QuotaRPS, floored at 1).
	QuotaRPS   float64
	QuotaBurst int
	// Logger, when set, receives one structured access-log line per job
	// and store request (admitted or refused): trace id, client token
	// digest, kind, outcome, status, queue wait, duration, bytes in/out.
	// Raw bearer tokens never appear in it. Nil disables request logging.
	Logger *slog.Logger
}

// Server is the recompile service. Create with New, expose with Handler.
type Server struct {
	opts      core.Options
	store     *store.Tiered
	tracer    *obs.Tracer
	logger    *slog.Logger
	maxBody   int64
	start     time.Time
	authToken string
	limJobs   *limiter
	limStore  *limiter
	quotas    *quotas
	draining  atomic.Bool

	// The persistent metric registry: families registered once in New,
	// counter/gauge samples refreshed from the maps below at scrape time,
	// histograms observed live from request goroutines (obs.Metric is
	// concurrency-safe).
	ms            *obs.MetricSet
	histJob       *obs.Metric // polynimad_job_seconds{kind,outcome}
	histQueueWait *obs.Metric // polynimad_queue_wait_seconds{class}
	histStoreOp   *obs.Metric // store_tier_op_seconds{tier,op}

	mu         sync.Mutex
	inflight   int64
	jobs       map[[2]string]int64   // {kind, outcome} -> count
	jobSecs    map[[2]string]float64 // {kind, outcome} -> summed seconds
	storeReqs  map[[2]string]int64   // {method, outcome} -> count
	rejected   map[[2]string]int64   // {class, reason} -> requests refused at admission
	clientReqs map[[2]string]int64   // {client, outcome} -> admission decisions
	jobCounter int64                 // per-job trace-track naming
}

// New returns a server over one shared tiered store (a fresh shared memory
// tier fronting cfg.Backing).
func New(cfg Config) *Server {
	o := cfg.Opts
	o.Obs = cfg.Tracer
	o.Store = nil
	o.NoFuncCache = false
	s := &Server{
		opts:       o,
		store:      store.NewTiered(store.NewMemory(), cfg.Backing),
		tracer:     cfg.Tracer,
		logger:     cfg.Logger,
		maxBody:    cfg.MaxBodyBytes,
		start:      time.Now(),
		authToken:  cfg.AuthToken,
		limJobs:    newLimiter(cfg.MaxInflightJobs, cfg.MaxQueueJobs),
		limStore:   newLimiter(cfg.MaxInflightStore, cfg.MaxQueueStore),
		quotas:     newQuotas(cfg.QuotaRPS, cfg.QuotaBurst),
		jobs:       map[[2]string]int64{},
		jobSecs:    map[[2]string]float64{},
		storeReqs:  map[[2]string]int64{},
		rejected:   map[[2]string]int64{},
		clientReqs: map[[2]string]int64{},
	}
	if s.maxBody <= 0 {
		s.maxBody = 256 << 20
	}
	s.opts.SharedStore = s.store
	s.initMetrics()
	// Per-tier store op latencies flow straight into the histogram; the
	// observer is installed before the store serves its first request.
	s.store.SetLatencyObserver(func(tier, op string, seconds float64) {
		s.histStoreOp.Observe(seconds,
			obs.Label{Key: "tier", Val: tier}, obs.Label{Key: "op", Val: op})
	})
	return s
}

// storeOpBuckets extends the default latency ladder downward: memory-tier
// artifact gets are single-digit microseconds, and a histogram that starts
// at 1ms would report them all in its first bucket.
var storeOpBuckets = []float64{
	0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// initMetrics registers every family once, in a fixed order, so /metrics
// output stays deterministic for a given set of values.
func (s *Server) initMetrics() {
	s.ms = obs.NewMetricSet()
	s.ms.Gauge("polynimad_uptime_seconds", "Seconds since the daemon started.")
	s.ms.Gauge("polynimad_jobs_inflight", "Jobs currently executing.")
	s.ms.Gauge("polynimad_draining",
		"1 once shutdown drain has begun (and /healthz answers 503), else 0.")
	s.ms.Counter("polynimad_jobs_total", "Jobs served, by kind and outcome.")
	s.ms.Counter("polynimad_job_seconds_total",
		"Summed job wall-clock seconds, by kind and outcome.")
	s.histJob = s.ms.Histogram("polynimad_job_seconds",
		"Job wall-clock latency distribution, by kind and outcome.", nil)
	s.histQueueWait = s.ms.Histogram("polynimad_queue_wait_seconds",
		"Time admitted requests spent waiting for a concurrency slot, by class.", nil)
	s.ms.Counter("polynimad_store_requests_total",
		"Store-protocol requests served, by method and outcome.")
	s.ms.Counter("polynimad_rejected_total",
		"Requests refused at admission, by class and reason (auth, quota, overload, cancelled).")
	s.ms.Counter("polynimad_client_requests_total",
		"Admission decisions by client and outcome (client is a token digest or remote host).")
	s.ms.Gauge("polynimad_queue_depth",
		"Requests waiting for an admission slot right now, by class.")
	ops := s.ms.Counter("store_tier_ops_total",
		"Shared artifact-store operations by tier and outcome.")
	s.histStoreOp = s.ms.Histogram("store_tier_op_seconds",
		"Shared artifact-store operation latency, by tier and op (get/put).", storeOpBuckets)
	s.ms.Gauge("polynima_build_info",
		"Build/runtime info: constant 1 with the go version and store tiers in labels.").
		Set(1,
			obs.Label{Key: "go_version", Val: runtime.Version()},
			obs.Label{Key: "store_tiers", Val: store.ExportTierOps(ops, s.store.Stats())})
	s.ms.Gauge("go_goroutines", "Live goroutines.")
	s.ms.Gauge("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.")
	s.ms.Gauge("go_memstats_heap_sys_bytes", "Heap memory obtained from the OS.")
	s.ms.Counter("go_gc_pause_seconds_total", "Cumulative stop-the-world GC pause seconds.")
	s.ms.Counter("go_gc_cycles_total", "Completed GC cycles.")
}

// Store exposes the shared tiered store (tests, diagnostics).
func (s *Server) Store() *store.Tiered { return s.store }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/recompile", s.admit("jobs", s.limJobs,
		func(w http.ResponseWriter, r *http.Request) { s.job(w, r, "recompile", s.recompile) }))
	mux.HandleFunc("POST /v1/trace", s.admit("jobs", s.limJobs,
		func(w http.ResponseWriter, r *http.Request) { s.job(w, r, "trace", s.traceJob) }))
	mux.HandleFunc("POST /v1/additive", s.admit("jobs", s.limJobs,
		func(w http.ResponseWriter, r *http.Request) { s.job(w, r, "additive", s.additive) }))
	mux.HandleFunc("GET /store/v1/{ns}/{key}", s.admit("store", s.limStore, s.storeGet))
	mux.HandleFunc("PUT /store/v1/{ns}/{key}", s.admit("store", s.limStore, s.storePut))
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /debug/pprof/", s.debugAuth(pprof.Index))
	mux.HandleFunc("GET /debug/pprof/cmdline", s.debugAuth(pprof.Cmdline))
	mux.HandleFunc("GET /debug/pprof/profile", s.debugAuth(pprof.Profile))
	mux.HandleFunc("GET /debug/pprof/symbol", s.debugAuth(pprof.Symbol))
	mux.HandleFunc("GET /debug/pprof/trace", s.debugAuth(pprof.Trace))
	return mux
}

// --- admission --------------------------------------------------------------

// admit wraps a handler with the admission pipeline: authn, per-client
// quota, then the class's concurrency limiter — in that order, so an
// unauthenticated request can neither spend quota nor occupy a queue slot.
// Refusals are counted under polynimad_rejected_total{class,reason} and the
// per-client counters.
//
// admit also opens the request's observability envelope (log.go): it
// resolves the trace position (joining a client traceparent or starting a
// trace), answers it as X-Polynima-Trace-Id, wraps the writer in the
// status/byte recorder, measures queue wait, and — admitted or refused —
// emits the one access-log line on the way out.
func (s *Server) admit(class string, lim *limiter, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		tc, joined := traceContextFor(r)
		info := &reqInfo{tc: tc, joined: joined, client: clientID(r), kind: requestKind(class, r)}
		rr := &responseRecorder{ResponseWriter: w}
		rr.Header().Set(traceIDHeader, tc.TraceIDHex())
		r = withReqInfo(r, info)
		defer func() { s.logRequest(r, rr, info, time.Since(t0)) }()

		client := info.client
		if s.authToken != "" && !s.bearerOK(r) {
			info.outcome = "auth"
			s.reject(class, "auth", client)
			rr.Header().Set("WWW-Authenticate", `Bearer realm="polynimad"`)
			http.Error(rr, "unauthorized", http.StatusUnauthorized)
			return
		}
		if ok, wait := s.quotas.allow(client); !ok {
			info.outcome = "quota"
			s.reject(class, "quota", client)
			rr.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(wait)))
			http.Error(rr, "per-client quota exceeded", http.StatusTooManyRequests)
			return
		}
		qw0 := time.Now()
		release, ok := lim.acquire(r.Context().Done())
		info.queueWait = time.Since(qw0)
		if !ok {
			if r.Context().Err() != nil {
				// The client gave up while queued; nobody is listening for
				// a status line, but the refusal is still accounted.
				info.outcome = "cancelled"
				rr.status = statusClientClosedRequest
				s.reject(class, "cancelled", client)
				return
			}
			info.outcome = "overload"
			s.reject(class, "overload", client)
			rr.Header().Set("Retry-After", "1")
			http.Error(rr, "overloaded, retry later", http.StatusTooManyRequests)
			return
		}
		defer release()
		// Queue wait is observed for admitted requests only — shed requests
		// never waited for the slot they were refused.
		s.histQueueWait.Observe(info.queueWait.Seconds(), obs.Label{Key: "class", Val: class})
		s.countClient(client, "admitted")
		h(rr, r)
	}
}

func (s *Server) reject(class, reason, client string) {
	s.count(func() { s.rejected[[2]string{class, reason}]++ })
	s.countClient(client, reason)
}

// maxClientLabels bounds the per-client metric cardinality: once this many
// distinct clients have been seen, further ones are folded into "other".
const maxClientLabels = 1024

func (s *Server) countClient(client, outcome string) {
	s.count(func() {
		if _, seen := s.clientReqs[[2]string{client, outcome}]; !seen && len(s.clientReqs) >= maxClientLabels {
			client = "other"
		}
		s.clientReqs[[2]string{client, outcome}]++
	})
}

// --- job plumbing -----------------------------------------------------------

// httpError carries a job failure with its status code; anything else a job
// returns maps to 500.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

func unprocessable(err error) error {
	return &httpError{status: http.StatusUnprocessableEntity, err: err}
}

// statusClientClosedRequest is the conventional (nginx) status for a
// request whose client went away before the response; nobody receives it,
// but it keeps logs and traces honest.
const statusClientClosedRequest = 499

// jobRequest is a parsed job: the input image plus common parameters.
type jobRequest struct {
	img    *image.Image
	seed   int64
	target string // lowering target ISA (?target=, "" = server default)
	input  []byte // optional concrete input (X-Polynima-Input, base64)
	query  func(string) string
	ctx    context.Context // the request's context; cancels the job's pipeline
}

// job wraps one request: body parsing, per-job span (tagged with the
// request's distributed trace id, so the daemon's span trace stitches to
// the client's), counters, the latency histogram, and error mapping. fn
// writes the success response itself. A panic in fn, on this goroutine or
// on a pipeline pool worker, fails only this job: a 500 with outcome
// "panic" (logPanic records the stack).
func (s *Server) job(w http.ResponseWriter, r *http.Request, kind string,
	fn func(w http.ResponseWriter, req *jobRequest) error) {
	t0 := time.Now()
	info := reqInfoFrom(r.Context())
	s.count(func() { s.inflight++; s.jobCounter++ })
	var tid int64
	if s.tracer.Enabled() {
		s.mu.Lock()
		n := s.jobCounter
		s.mu.Unlock()
		tid = s.tracer.AllocTID(fmt.Sprintf("job %d (%s)", n, kind))
	}
	args := []obs.Arg{{Key: "kind", Val: kind}}
	if info != nil {
		// Per-job, not per-tracer: each job may join a different client trace.
		args = append(args, obs.Arg{Key: "trace_id", Val: info.tc.TraceIDHex()})
	}
	sp := s.tracer.Begin(tid, "serve", "job", args...)
	outcome := "ok"
	defer func() {
		d := time.Since(t0)
		sp.Arg("outcome", outcome).End()
		if info != nil {
			info.outcome = outcome
		}
		s.histJob.Observe(d.Seconds(),
			obs.Label{Key: "kind", Val: kind}, obs.Label{Key: "outcome", Val: outcome})
		s.count(func() {
			s.inflight--
			s.jobs[[2]string{kind, outcome}]++
			s.jobSecs[[2]string{kind, outcome}] += d.Seconds()
		})
	}()

	req, err := s.parseJob(w, r)
	if err == nil {
		// One recovery for both goroutines: pool.Run recovers a panic here
		// into the *pool.PanicError a panicking pipeline task returns.
		err = pool.Run(1, 1, func(int, int) error { return fn(w, req) })
	}
	if err != nil {
		status := http.StatusInternalServerError
		if he, ok := err.(*httpError); ok {
			status = he.status
		}
		msg := err.Error()
		var pe *pool.PanicError
		switch {
		case errors.As(err, &pe):
			// The stack goes to the log, not to the client.
			outcome, status = "panic", http.StatusInternalServerError
			msg = fmt.Sprintf("job panicked: %v", pe.Value)
			s.logPanic(r, kind, pe)
		case r.Context().Err() != nil:
			// The client disconnected or timed out; the error is the
			// cancellation surfacing through the pipeline, not a job
			// failure. Nobody reads the response, but the outcome label is
			// how a freed slot is observed (tests, CI smoke).
			outcome = "cancelled"
			status = statusClientClosedRequest
		case status >= 500:
			outcome = "error"
		default:
			outcome = "client_error"
		}
		http.Error(w, msg, status)
	}
}

func (s *Server) parseJob(w http.ResponseWriter, r *http.Request) (*jobRequest, error) {
	body, err := io.ReadAll(http.MaxBytesReader(unwrapWriter(w), r.Body, s.maxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			// Over-limit bodies get the specific 413, not a generic 400 —
			// and MaxBytesReader must see the real ResponseWriter so it can
			// close the connection (the client is still sending).
			return nil, &httpError{status: http.StatusRequestEntityTooLarge,
				err: fmt.Errorf("request body exceeds %d bytes", mbe.Limit)}
		}
		return nil, badRequest("reading body: %v", err)
	}
	img, err := image.Unmarshal(body)
	if err != nil {
		return nil, badRequest("not a PXE image: %v", err)
	}
	req := &jobRequest{img: img, seed: s.opts.Seed, target: s.opts.Target,
		query: r.URL.Query().Get, ctx: r.Context()}
	if v := req.query("seed"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, badRequest("seed %q: %v", v, err)
		}
		req.seed = seed
	}
	if v := req.query("target"); v != "" {
		if mx.TargetByName(v) == nil {
			return nil, badRequest("target %q: unknown (want mx64 or mx64w)", v)
		}
		req.target = v
	}
	if v := r.Header.Get("X-Polynima-Input"); v != "" {
		in, err := base64.StdEncoding.DecodeString(v)
		if err != nil {
			return nil, badRequest("X-Polynima-Input: %v", err)
		}
		req.input = in
	}
	return req, nil
}

// project builds a core.Project over the shared store for one job. The
// request's context rides in as core's cancellation: a disconnected client
// stops its pipeline workers and guest runs.
func (s *Server) project(req *jobRequest) (*core.Project, error) {
	o := s.opts
	o.Seed = req.seed
	o.Target = req.target
	o.Ctx = req.ctx
	p, err := core.NewProject(req.img, o)
	if err != nil {
		return nil, unprocessable(err)
	}
	return p, nil
}

func (req *jobRequest) coreInput() core.Input {
	return core.Input{Data: req.input, Seed: req.seed}
}

// --- job handlers -----------------------------------------------------------

// recompile runs the pipeline and answers with the recompiled image bytes.
// Identical input, options, and store contents produce byte-identical
// responses — the same determinism contract as the CLI (DESIGN.md §3).
func (s *Server) recompile(w http.ResponseWriter, req *jobRequest) error {
	p, err := s.project(req)
	if err != nil {
		return err
	}
	if req.query("trace") != "" {
		if _, err := p.Trace([]core.Input{req.coreInput()}); err != nil {
			return unprocessable(err)
		}
	}
	if req.query("prune") != "" {
		if err := p.PruneCallbacks([]core.Input{req.coreInput()}); err != nil {
			return unprocessable(err)
		}
	}
	rec, err := p.Recompile()
	if err != nil {
		return err
	}
	out, err := rec.Marshal()
	if err != nil {
		return err
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Polynima-Funcs", strconv.Itoa(p.Stats.Funcs))
	h.Set("X-Polynima-Code-Size", strconv.Itoa(p.Stats.CodeSize))
	h.Set("X-Polynima-Store-Mem-Hits", strconv.Itoa(p.Stats.StoreMemHits))
	h.Set("X-Polynima-Store-Back-Hits", strconv.Itoa(p.Stats.StoreDiskHits))
	w.Write(out)
	return nil
}

// traceResponse is the JSON answer of POST /v1/trace.
type traceResponse struct {
	ICFTs      int         `json:"icfts"`
	NewTargets int         `json:"new_targets"`
	Runs       int         `json:"runs"`
	Insts      uint64      `json:"insts"`
	Merged     [][2]uint64 `json:"merged"` // (site, target) in merge order
}

func (s *Server) traceJob(w http.ResponseWriter, req *jobRequest) error {
	p, err := s.project(req)
	if err != nil {
		return err
	}
	res, err := p.Trace([]core.Input{req.coreInput()})
	if err != nil {
		return unprocessable(err)
	}
	resp := traceResponse{
		ICFTs:      res.ICFTs,
		NewTargets: res.NewTargets,
		Runs:       res.Runs,
		Insts:      res.Insts,
	}
	for _, st := range res.Merged {
		resp.Merged = append(resp.Merged, [2]uint64{st.Site, st.Target})
	}
	return writeJSON(w, resp)
}

// additiveResponse is the JSON answer of POST /v1/additive. Output travels
// base64 (Go marshals []byte that way), not as a JSON string: guest output
// is raw bytes, and a string field would mangle anything non-UTF-8 into
// U+FFFD replacement runes in transit.
type additiveResponse struct {
	ExitCode   int    `json:"exit_code"`
	Output     []byte `json:"output_b64"`
	Recompiles int    `json:"recompiles"`
	Misses     int    `json:"misses"`
	Image      []byte `json:"image"` // marshaled final image (base64 in JSON)
}

func (s *Server) additive(w http.ResponseWriter, req *jobRequest) error {
	p, err := s.project(req)
	if err != nil {
		return err
	}
	maxLoops := 64
	if v := req.query("maxloops"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return badRequest("maxloops %q", v)
		}
		maxLoops = n
	}
	res, err := p.RunAdditive(req.coreInput(), maxLoops)
	if err != nil {
		return unprocessable(err)
	}
	out, err := res.Img.Marshal()
	if err != nil {
		return err
	}
	return writeJSON(w, additiveResponse{
		ExitCode:   res.Result.ExitCode,
		Output:     []byte(res.Result.Output),
		Recompiles: res.Recompiles,
		Misses:     len(res.Misses),
		Image:      out,
	})
}

func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(v)
}

// --- store endpoints --------------------------------------------------------

// nsRE validates a namespace as both a safe path segment and a safe
// directory name; "." and ".." are syntactically valid matches but would
// escape the store root, so they are rejected separately.
var nsRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

func parseStorePath(r *http.Request) (ns string, key store.Key, ok bool) {
	ns = r.PathValue("ns")
	if !nsRE.MatchString(ns) || ns == "." || ns == ".." {
		return "", store.Key{}, false
	}
	raw, err := hex.DecodeString(r.PathValue("key"))
	if err != nil || len(raw) != len(key) {
		return "", store.Key{}, false
	}
	copy(key[:], raw)
	return ns, key, true
}

// storeOutcome accounts one finished store-protocol request: the method/
// outcome counter, the access-log outcome, and — when tracing — an instant
// in the daemon's span trace tagged with the request's distributed trace id,
// so a client can find its own store ops in the daemon's trace file.
func (s *Server) storeOutcome(r *http.Request, method, outcome string) {
	s.countStoreReq(method, outcome)
	info := reqInfoFrom(r.Context())
	if info != nil {
		info.outcome = outcome
	}
	if s.tracer.Enabled() {
		args := []obs.Arg{{Key: "op", Val: method}, {Key: "outcome", Val: outcome}}
		if info != nil {
			args = append(args, obs.Arg{Key: "trace_id", Val: info.tc.TraceIDHex()})
		}
		s.tracer.Instant(0, "serve", "store-op", args...)
	}
}

func (s *Server) storeGet(w http.ResponseWriter, r *http.Request) {
	ns, key, ok := parseStorePath(r)
	if !ok {
		s.storeOutcome(r, "get", "bad")
		http.Error(w, "bad namespace or key", http.StatusBadRequest)
		return
	}
	data, _, ok := s.store.Get(ns, key)
	if !ok {
		s.storeOutcome(r, "get", "miss")
		http.NotFound(w, r)
		return
	}
	s.storeOutcome(r, "get", "hit")
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(store.EncodeFrame(data))
}

func (s *Server) storePut(w http.ResponseWriter, r *http.Request) {
	ns, key, ok := parseStorePath(r)
	if !ok {
		s.storeOutcome(r, "put", "bad")
		http.Error(w, "bad namespace or key", http.StatusBadRequest)
		return
	}
	raw, err := io.ReadAll(http.MaxBytesReader(unwrapWriter(w), r.Body, s.maxBody))
	if err != nil {
		s.storeOutcome(r, "put", "bad")
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading body", http.StatusBadRequest)
		return
	}
	payload, ok := store.DecodeFrame(raw)
	if !ok {
		// A client that ships a corrupt frame gets told so — unlike reads,
		// accepting garbage here would store it for the whole fleet (it
		// would still never be *served*, the disk tier re-checksums, but
		// rejecting early keeps the store clean).
		s.storeOutcome(r, "put", "bad")
		http.Error(w, "bad frame", http.StatusBadRequest)
		return
	}
	s.store.Put(ns, key, payload)
	s.storeOutcome(r, "put", "ok")
	w.WriteHeader(http.StatusNoContent)
}

// --- metrics ----------------------------------------------------------------

func (s *Server) count(f func()) {
	s.mu.Lock()
	f()
	s.mu.Unlock()
}

func (s *Server) countStoreReq(method, outcome string) {
	s.count(func() { s.storeReqs[[2]string{method, outcome}]++ })
}

// metrics renders the daemon's counters, latency histograms, Go runtime
// gauges, build info, and the shared store's per-tier ops in Prometheus
// text format. The families live in the persistent set registered by
// initMetrics (histograms accumulate there between scrapes); counter and
// gauge samples are refreshed from the authoritative maps here, at scrape
// time. Set overwrites by label set, so re-exporting is idempotent.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	ms := s.ms
	ms.Gauge("polynimad_uptime_seconds", "").Set(time.Since(s.start).Seconds())
	ms.Gauge("polynimad_draining", "").Set(boolGauge(s.draining.Load()))

	s.mu.Lock()
	ms.Gauge("polynimad_jobs_inflight", "").Set(float64(s.inflight))
	jobs := ms.Counter("polynimad_jobs_total", "")
	for k, v := range s.jobs {
		jobs.Set(float64(v), obs.Label{Key: "kind", Val: k[0]}, obs.Label{Key: "outcome", Val: k[1]})
	}
	secs := ms.Counter("polynimad_job_seconds_total", "")
	for k, v := range s.jobSecs {
		secs.Set(v, obs.Label{Key: "kind", Val: k[0]}, obs.Label{Key: "outcome", Val: k[1]})
	}
	reqs := ms.Counter("polynimad_store_requests_total", "")
	for k, v := range s.storeReqs {
		reqs.Set(float64(v), obs.Label{Key: "method", Val: k[0]}, obs.Label{Key: "outcome", Val: k[1]})
	}
	rej := ms.Counter("polynimad_rejected_total", "")
	for k, v := range s.rejected {
		rej.Set(float64(v), obs.Label{Key: "class", Val: k[0]}, obs.Label{Key: "reason", Val: k[1]})
	}
	cli := ms.Counter("polynimad_client_requests_total", "")
	for k, v := range s.clientReqs {
		cli.Set(float64(v), obs.Label{Key: "client", Val: k[0]}, obs.Label{Key: "outcome", Val: k[1]})
	}
	s.mu.Unlock()

	depth := ms.Gauge("polynimad_queue_depth", "")
	depth.Set(float64(s.limJobs.queued()), obs.Label{Key: "class", Val: "jobs"})
	depth.Set(float64(s.limStore.queued()), obs.Label{Key: "class", Val: "store"})

	store.ExportTierOps(ms.Counter("store_tier_ops_total", ""), s.store.Stats())

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	ms.Gauge("go_goroutines", "").Set(float64(runtime.NumGoroutine()))
	ms.Gauge("go_memstats_heap_alloc_bytes", "").Set(float64(mem.HeapAlloc))
	ms.Gauge("go_memstats_heap_sys_bytes", "").Set(float64(mem.HeapSys))
	ms.Counter("go_gc_pause_seconds_total", "").Set(float64(mem.PauseTotalNs) / 1e9)
	ms.Counter("go_gc_cycles_total", "").Set(float64(mem.NumGC))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := ms.Write(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
