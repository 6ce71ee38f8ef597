package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/serve"
	"repro/internal/store"
)

// panickyStore is a backing tier that misses, except that Get panics for
// one namespace while armed: a stand-in for any bug a job can reach. The
// func namespace is read on the pipeline's pool workers, the cfg namespace
// on the handler goroutine.
type panickyStore struct {
	mu sync.Mutex
	ns string // "" = disarmed
}

func (s *panickyStore) arm(ns string) {
	s.mu.Lock()
	s.ns = ns
	s.mu.Unlock()
}

func (s *panickyStore) Get(ns string, _ store.Key) ([]byte, string, bool) {
	s.mu.Lock()
	armed := s.ns
	s.mu.Unlock()
	if ns == armed {
		panic(fmt.Sprintf("forced %s panic", ns))
	}
	return nil, "", false
}

func (s *panickyStore) Put(string, store.Key, []byte) {}

func (s *panickyStore) Stats() map[string]store.Counters { return nil }

// TestServeJobPanicFailsOnlyItsJob: a job that panics, on its handler
// goroutine or on a pipeline pool worker, gets a 500 and is counted,
// histogrammed and access-logged with outcome "panic"; the daemon lives on,
// and the next job for the same image succeeds with the store-off bytes.
// The cfg artifact is shared by both targets, so the first job probes it;
// the second, for the other target, probes the func artifacts.
func TestServeJobPanicFailsOnlyItsJob(t *testing.T) {
	imgBytes := compileMarshal(t, threadedSrc)
	img, err := image.Unmarshal(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	back := &panickyStore{}
	var logBuf bytes.Buffer
	o := core.DefaultOptions()
	o.Workers = 2 // the func artifacts are probed on pool workers
	h := serve.New(serve.Config{
		Opts:    o,
		Backing: back,
		Logger:  slog.New(slog.NewJSONHandler(&logBuf, nil)),
	}).Handler()
	for _, tc := range []struct{ ns, target string }{{"cfg", "mx64"}, {"func", "mx64w"}} {
		lo := core.DefaultOptions()
		lo.Target = tc.target
		lo.NoFuncCache = true
		p, err := core.NewProject(img, lo)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := p.Recompile()
		if err != nil {
			t.Fatal(err)
		}
		want, err := rec.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		post := func() *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/recompile?target="+tc.target,
				bytes.NewReader(imgBytes)))
			return w
		}
		back.arm(tc.ns)
		w := post()
		if body := w.Body.String(); w.Code != http.StatusInternalServerError ||
			body != "job panicked: forced "+tc.ns+" panic\n" {
			t.Fatalf("%s panic: status %d, body %.200q; want a 500 naming the panic, without its stack", tc.ns, w.Code, body)
		}
		back.arm("")
		if w = post(); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("job after a %s panic: status %d, want 200 and the store-off bytes", tc.ns, w.Code)
		}
	}

	var outcomes, stacks []string
	for _, raw := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var l struct {
			logLine
			Stack string `json:"stack"`
		}
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("log line is not JSON: %v (%s)", err, raw)
		}
		switch l.Msg {
		case "request":
			outcomes = append(outcomes, fmt.Sprintf("%s/%d", l.Outcome, l.Status))
		case "job panic":
			stacks = append(stacks, l.Stack)
		}
	}
	if got, want := strings.Join(outcomes, " "), "panic/500 ok/200 panic/500 ok/200"; got != want {
		t.Errorf("access log outcomes %q, want %q", got, want)
	}
	// Each record carries the stack of the goroutine that panicked: the
	// handler's for the cfg probe, a pool worker's (which never ran the
	// handler) for the func probe.
	if len(stacks) != 2 {
		t.Fatalf("%d panic records, want 2", len(stacks))
	}
	for i, onHandler := range []bool{true, false} {
		if !strings.Contains(stacks[i], "panickyStore") || strings.Contains(stacks[i], "(*Server).job") != onHandler {
			t.Errorf("panic record %d: stack does not show the panic on the expected goroutine:\n%s", i, stacks[i])
		}
	}

	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range []string{
		`polynimad_jobs_total{kind="recompile",outcome="panic"} 2`,
		`polynimad_jobs_total{kind="recompile",outcome="ok"} 2`,
		`polynimad_job_seconds_count{kind="recompile",outcome="panic"} 2`,
		`polynimad_jobs_inflight 0`,
	} {
		if !strings.Contains(mrec.Body.String(), line) {
			t.Errorf("metrics lack %q", line)
		}
	}
}
