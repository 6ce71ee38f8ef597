// Request-level observability for the fleet daemon: per-request trace
// context (W3C traceparent in, X-Polynima-Trace-Id out), the structured
// JSON/text access log, the response recorder that captures status and
// byte counts, and the drain-aware health endpoint.
//
// The access log is an audit trail: one line per job and store request —
// admitted or refused — carrying the trace id, the client's token digest
// (never the raw token), kind, outcome, HTTP status, queue wait, duration,
// and bytes in/out. A nil logger disables it entirely; every call site is
// nil-safe, the same disabled-path contract as the tracer.
package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
)

// reqInfo is the per-request observability state threaded from admission
// through the handler to the access log via the request context.
type reqInfo struct {
	tc        obs.TraceContext // this request's trace position (always valid)
	joined    bool             // the client supplied the trace via traceparent
	client    string           // token digest or remote host (admission.go)
	kind      string           // recompile/trace/additive/store_get/store_put
	queueWait time.Duration    // time spent waiting for an admission slot
	outcome   string           // refined by handlers; derived from status if ""
}

type ctxKey int

const reqInfoKey ctxKey = 0

// withReqInfo attaches info to the request's context.
func withReqInfo(r *http.Request, info *reqInfo) *http.Request {
	return r.WithContext(context.WithValue(r.Context(), reqInfoKey, info))
}

// reqInfoFrom returns the request's reqInfo, or nil when the handler runs
// outside the admission wrapper (direct tests).
func reqInfoFrom(ctx context.Context) *reqInfo {
	info, _ := ctx.Value(reqInfoKey).(*reqInfo)
	return info
}

// traceContextFor resolves a request's trace position: a valid traceparent
// header joins the client's trace (fresh span id, same trace id); anything
// else starts a new trace. The second result reports a join.
func traceContextFor(r *http.Request) (obs.TraceContext, bool) {
	if tc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		return tc.Child(), true
	}
	return obs.NewTraceContext(), false
}

// traceIDHeader is the response header naming the trace a request was
// served under, so a client can stitch its own trace file to the daemon's.
const traceIDHeader = "X-Polynima-Trace-Id"

// responseRecorder captures the status code and response byte count for
// the access log while delegating to the real ResponseWriter.
type responseRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (rr *responseRecorder) WriteHeader(code int) {
	if rr.status == 0 {
		rr.status = code
	}
	rr.ResponseWriter.WriteHeader(code)
}

func (rr *responseRecorder) Write(b []byte) (int, error) {
	if rr.status == 0 {
		rr.status = http.StatusOK
	}
	n, err := rr.ResponseWriter.Write(b)
	rr.bytes += int64(n)
	return n, err
}

// unwrapWriter returns the real ResponseWriter beneath a recorder —
// http.MaxBytesReader needs it to close the connection on oversized
// bodies (its interface probe does not see through wrappers).
func unwrapWriter(w http.ResponseWriter) http.ResponseWriter {
	if rr, ok := w.(*responseRecorder); ok {
		return rr.ResponseWriter
	}
	return w
}

// logRequest emits the one access-log line for a finished (or refused)
// request. Nil logger: no-op. The raw bearer token is never among the
// fields — info.client is a digest (clientID, admission.go).
func (s *Server) logRequest(r *http.Request, rr *responseRecorder, info *reqInfo, dur time.Duration) {
	if s.logger == nil {
		return
	}
	status := rr.status
	if status == 0 {
		status = http.StatusOK
	}
	outcome := info.outcome
	if outcome == "" {
		outcome = outcomeForStatus(status)
	}
	bytesIn := r.ContentLength
	if bytesIn < 0 {
		bytesIn = 0
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("trace_id", info.tc.TraceIDHex()),
		slog.Bool("trace_joined", info.joined),
		slog.String("client", info.client),
		slog.String("kind", info.kind),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.String("outcome", outcome),
		slog.Float64("queue_wait_s", info.queueWait.Seconds()),
		slog.Float64("duration_s", dur.Seconds()),
		slog.Int64("bytes_in", bytesIn),
		slog.Int64("bytes_out", rr.bytes),
	)
}

// logPanic records a job's recovered panic with the stack its 500 leaves
// out, under the request's trace id. Nil logger: no-op.
func (s *Server) logPanic(r *http.Request, kind string, pe *pool.PanicError) {
	if s.logger == nil {
		return
	}
	attrs := []slog.Attr{slog.String("kind", kind), slog.String("panic", fmt.Sprint(pe.Value)),
		slog.String("stack", string(pe.Stack))}
	if info := reqInfoFrom(r.Context()); info != nil {
		attrs = append(attrs, slog.String("trace_id", info.tc.TraceIDHex()))
	}
	s.logger.LogAttrs(r.Context(), slog.LevelError, "job panic", attrs...)
}

// outcomeForStatus maps an HTTP status to the access log's outcome field
// when no handler refined it (store requests, admission refusals that set
// their own reason keep it).
func outcomeForStatus(status int) string {
	switch {
	case status == statusClientClosedRequest:
		return "cancelled"
	case status >= 500:
		return "error"
	case status == http.StatusNotFound:
		return "miss"
	case status >= 400:
		return "client_error"
	default:
		return "ok"
	}
}

// requestKind names a request for the log and metrics: the job kind for
// /v1/* and store_get/store_put for the blob protocol.
func requestKind(class string, r *http.Request) string {
	if class == "store" {
		if r.Method == http.MethodPut {
			return "store_put"
		}
		return "store_get"
	}
	if len(r.URL.Path) > len("/v1/") {
		return r.URL.Path[len("/v1/"):]
	}
	return class
}

// --- drain-aware health ------------------------------------------------------

// BeginDrain marks the daemon as draining: /healthz flips to 503 so load
// balancers stop routing new work while in-flight jobs finish. polynimad
// calls this the moment SIGINT/SIGTERM arrives, before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

// --- token-gated pprof -------------------------------------------------------

// debugAuth gates /debug/pprof/* behind the bearer token when one is
// configured: profiles expose heap contents and symbol names, so they get
// the same credential as jobs (unlike /metrics and /healthz, which stay
// open for scrapers and probes). No quota or limiter — diagnostics must
// work on an overloaded daemon.
func (s *Server) debugAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.authToken != "" && !s.bearerOK(r) {
			s.reject("debug", "auth", clientID(r))
			w.Header().Set("WWW-Authenticate", `Bearer realm="polynimad"`)
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		h(w, r)
	}
}
