package serve_test

// End-to-end tests for the daemon's production posture: authn, body-size
// limits, raw-byte output fidelity, admission control, and request
// cancellation (the white-box quota/limiter tests are admission_test.go).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/serve"
	"repro/internal/store"
)

// postRaw posts a job body and returns status, response body, and headers;
// goroutine-safe (no t.Fatal), for concurrent admission tests.
func postRaw(url, path string, body []byte, header map[string]string) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, resp.Header, err
}

func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return string(body)
}

func waitMetric(t *testing.T, url, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if strings.Contains(getMetrics(t, url), want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never showed %q; last:\n%s", want, getMetrics(t, url))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeOversizedBodyIs413: a body just over MaxBodyBytes answers 413
// Request Entity Too Large, on both the job and the store-PUT paths — the
// historical behavior was a generic 400 from a MaxBytesReader given a nil
// ResponseWriter.
func TestServeOversizedBodyIs413(t *testing.T) {
	cfg := serve.Config{Opts: core.DefaultOptions(), MaxBodyBytes: 1024}
	_, srv := newServer(t, cfg)
	over := bytes.Repeat([]byte{0x7f}, 1025)

	status, body, _, err := postRaw(srv.URL, "/v1/recompile", over, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("job with oversized body: status %d (%s), want 413", status, body)
	}

	req, _ := http.NewRequest(http.MethodPut,
		srv.URL+"/store/v1/func/"+store.KeyOf([]byte("k")).Hex(), bytes.NewReader(over))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("store PUT with oversized body: status %d, want 413", resp.StatusCode)
	}

	// Just under the limit still parses far enough to be judged on content.
	status, _, _, err = postRaw(srv.URL, "/v1/recompile", over[:1023], nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusBadRequest {
		t.Fatalf("garbage body under the limit: status %d, want 400", status)
	}
}

// TestServeRejectsUnmappableSections: a well-formed program whose image
// declares a 16 GiB section is refused as 400 "not a PXE image" before a
// trace job's loader maps it, and the daemon keeps serving: a good job sent
// afterwards still succeeds.
func TestServeRejectsUnmappableSections(t *testing.T) {
	good := compileMarshal(t, threadedSrc)
	img, err := image.Unmarshal(good)
	if err != nil {
		t.Fatal(err)
	}
	last := img.Sections[len(img.Sections)-1]
	if err := img.AddSection(image.Section{Name: ".huge", Addr: last.Addr + last.Size, Size: 16 << 30}); err != nil {
		t.Fatal(err)
	}
	bad, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	_, srv := newServer(t, serve.Config{})
	status, body, _, err := postRaw(srv.URL, "/v1/trace", bad, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusBadRequest || !strings.Contains(string(body), "not a PXE image") {
		t.Fatalf("16 GiB section: status %d (%s), want 400 not a PXE image", status, body)
	}
	resp, out := postRecompile(t, srv.URL, good)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good job after the rejection: status %d (%s)", resp.StatusCode, out)
	}
	if !bytes.Equal(out, localRecompile(t, good)) {
		t.Fatal("good job after the rejection diverged from a local recompile")
	}
}

// TestServeAdditiveRawOutputBytes pins the output_b64 fix: guest output
// containing non-UTF-8 bytes survives the daemon roundtrip byte-identical
// to a local run (a JSON string field used to mangle it to U+FFFD runes).
func TestServeAdditiveRawOutputBytes(t *testing.T) {
	const rawSrc = `
extern print_char;
func main() {
	print_char(255);
	print_char(128);
	print_char(0);
	print_char(65);
	print_char(254);
	return 0;
}`
	imgBytes := compileMarshal(t, rawSrc)

	img, err := image.Unmarshal(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProject(img, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	local, err := p.RunAdditive(core.Input{Seed: core.DefaultOptions().Seed}, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(local.Result.Output)
	if !bytes.Equal(want, []byte{255, 128, 0, 65, 254}) {
		t.Fatalf("local run emitted %v, want the raw print_char bytes", want)
	}

	_, srv := newServer(t, serve.Config{})
	status, body, _, err := postRaw(srv.URL, "/v1/additive?maxloops=8", imgBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("additive status %d: %s", status, body)
	}
	var ar struct {
		Output []byte `json:"output_b64"`
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ar.Output, want) {
		t.Fatalf("daemon output %v diverged from local bytes %v", ar.Output, want)
	}
}

// TestServeAuthToken: with -auth-token set, jobs and store requests without
// the exact bearer token are 401; with it everything works byte-identically;
// /metrics and /healthz stay open.
func TestServeAuthToken(t *testing.T) {
	imgBytes := compileMarshal(t, threadedSrc)
	want := localRecompile(t, imgBytes)
	cfg := serve.Config{Opts: core.DefaultOptions(), AuthToken: "s3cret"}
	_, srv := newServer(t, cfg)
	hexKey := store.KeyOf([]byte("k")).Hex()

	for name, hdr := range map[string]map[string]string{
		"no token":     nil,
		"wrong token":  {"Authorization": "Bearer wrong"},
		"wrong scheme": {"Authorization": "Basic s3cret"},
	} {
		status, _, hdrs, err := postRaw(srv.URL, "/v1/recompile", imgBytes, hdr)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusUnauthorized {
			t.Errorf("job with %s: status %d, want 401", name, status)
		}
		if status == http.StatusUnauthorized && hdrs.Get("WWW-Authenticate") == "" {
			t.Errorf("job with %s: 401 without WWW-Authenticate", name)
		}
	}
	if resp := mustGet(t, srv.URL+"/store/v1/func/"+hexKey); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated store GET: status %d, want 401", resp.StatusCode)
	}

	status, got, _, err := postRaw(srv.URL, "/v1/recompile", imgBytes,
		map[string]string{"Authorization": "Bearer s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("authenticated job: status %d (%s)", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("authenticated recompile diverged from local bytes")
	}

	// The real store client with the matching AuthToken roundtrips.
	r, err := store.NewRemote(srv.URL, store.RemoteOptions{AuthToken: "s3cret", Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	k := store.KeyOf([]byte("k"))
	r.Put("func", k, []byte("v"))
	if data, _, ok := r.Get("func", k); !ok || !bytes.Equal(data, []byte("v")) {
		t.Fatalf("authenticated store roundtrip = %q, %v", data, ok)
	}
	// Without the token the same client is locked out (4xx = counted
	// error, not retried).
	noAuth, err := store.NewRemote(srv.URL, store.RemoteOptions{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := noAuth.Get("func", k); ok {
		t.Fatal("unauthenticated store client read an entry")
	}

	if resp := mustGet(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz behind auth: status %d", resp.StatusCode)
	}
	text := getMetrics(t, srv.URL)
	if !strings.Contains(text, `polynimad_rejected_total{class="jobs",reason="auth"}`) {
		t.Error("metrics missing the auth rejection counter")
	}
	if strings.Contains(text, "s3cret") {
		t.Error("metrics leaked the raw auth token")
	}
}

// gateStore is a backing tier whose Gets block until the gate opens — a
// deterministic way to hold a job mid-pipeline with its admission slot.
type gateStore struct{ gate chan struct{} }

func (g *gateStore) Get(ns string, key store.Key) ([]byte, string, bool) {
	<-g.gate
	return nil, "", false
}
func (g *gateStore) Put(ns string, key store.Key, data []byte) {}
func (g *gateStore) Stats() map[string]store.Counters          { return nil }

// TestServeAdmissionMatrix: with -max-inflight 1 and a queue of 1, a held
// job occupies the slot, a second waits in the queue (visible in the depth
// gauge), further jobs shed as 429 + Retry-After — and every admitted job's
// bytes still equal the local oracle.
func TestServeAdmissionMatrix(t *testing.T) {
	imgBytes := compileMarshal(t, threadedSrc)
	want := localRecompile(t, imgBytes)
	gate := &gateStore{gate: make(chan struct{})}
	cfg := serve.Config{
		Opts:            core.DefaultOptions(),
		Backing:         gate,
		MaxInflightJobs: 1,
		MaxQueueJobs:    1,
	}
	_, srv := newServer(t, cfg)

	type result struct {
		status int
		body   []byte
		err    error
	}
	res1 := make(chan result, 1)
	go func() {
		status, body, _, err := postRaw(srv.URL, "/v1/recompile", imgBytes, nil)
		res1 <- result{status, body, err}
	}()
	waitMetric(t, srv.URL, "polynimad_jobs_inflight 1")

	res2 := make(chan result, 1)
	go func() {
		status, body, _, err := postRaw(srv.URL, "/v1/recompile", imgBytes, nil)
		res2 <- result{status, body, err}
	}()
	waitMetric(t, srv.URL, `polynimad_queue_depth{class="jobs"} 1`)

	// Slot busy, queue full: the next two are shed immediately.
	for i := 0; i < 2; i++ {
		status, _, hdrs, err := postRaw(srv.URL, "/v1/recompile", imgBytes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusTooManyRequests {
			t.Fatalf("overload probe %d: status %d, want 429", i, status)
		}
		if hdrs.Get("Retry-After") == "" {
			t.Fatalf("overload probe %d: 429 without Retry-After", i)
		}
	}

	close(gate.gate)
	for i, ch := range []chan result{res1, res2} {
		r := <-ch
		if r.err != nil {
			t.Fatalf("admitted job %d: %v", i, r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("admitted job %d: status %d (%s)", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, want) {
			t.Fatalf("admitted job %d under load diverged from local bytes", i)
		}
	}
	text := getMetrics(t, srv.URL)
	if !strings.Contains(text, `polynimad_rejected_total{class="jobs",reason="overload"} 2`) {
		t.Fatalf("metrics missing the 2 overload rejections:\n%s", text)
	}
	if !strings.Contains(text, `polynimad_queue_depth{class="jobs"} 0`) {
		t.Fatal("queue depth did not drain to 0")
	}
}

// TestServeClientCancellationFreesSlot: a client that goes away mid-job has
// the job's pipeline cancelled — observed as the `cancelled` outcome, the
// inflight gauge returning to 0, and the single admission slot being free
// for the next job.
func TestServeClientCancellationFreesSlot(t *testing.T) {
	const slowSrc = `
func main() {
	var i;
	for (i = 0; i < 2000000000; i = i + 1) { }
	return 0;
}`
	slowBytes := compileMarshal(t, slowSrc)
	quickBytes := compileMarshal(t, threadedSrc)
	wantQuick := localRecompile(t, quickBytes)
	cfg := serve.Config{Opts: core.DefaultOptions(), MaxInflightJobs: 1}
	_, srv := newServer(t, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+"/v1/additive", bytes.NewReader(slowBytes))
	if err != nil {
		t.Fatal(err)
	}
	clientErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("slow job completed with status %d", resp.StatusCode)
		}
		clientErr <- err
	}()
	waitMetric(t, srv.URL, "polynimad_jobs_inflight 1")
	// Let the job get into its guest run, then abandon it.
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-clientErr; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client err = %v, want context canceled", err)
	}

	waitMetric(t, srv.URL, `polynimad_jobs_total{kind="additive",outcome="cancelled"} 1`)
	waitMetric(t, srv.URL, "polynimad_jobs_inflight 0")

	// The slot is free again: with -max-inflight 1, a fresh job is admitted
	// and byte-identical.
	status, got, _, err := postRaw(srv.URL, "/v1/recompile", quickBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("post-cancellation job: status %d (%s)", status, got)
	}
	if !bytes.Equal(got, wantQuick) {
		t.Fatal("post-cancellation recompile diverged from local bytes")
	}
}

// TestServeQuotaEndToEnd: per-client quotas answer 429 + Retry-After once
// the burst is spent, and the rejection is visible in the metrics.
func TestServeQuotaEndToEnd(t *testing.T) {
	imgBytes := compileMarshal(t, threadedSrc)
	cfg := serve.Config{
		Opts:       core.DefaultOptions(),
		QuotaRPS:   0.001, // effectively no refill within the test
		QuotaBurst: 2,
	}
	_, srv := newServer(t, cfg)

	for i := 0; i < 2; i++ {
		status, body, _, err := postRaw(srv.URL, "/v1/recompile", imgBytes, nil)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK {
			t.Fatalf("burst request %d: status %d (%s)", i, status, body)
		}
	}
	status, _, hdrs, err := postRaw(srv.URL, "/v1/recompile", imgBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-quota request: status %d, want 429", status)
	}
	if hdrs.Get("Retry-After") == "" {
		t.Fatal("quota 429 without Retry-After")
	}
	text := getMetrics(t, srv.URL)
	if !strings.Contains(text, `polynimad_rejected_total{class="jobs",reason="quota"} 1`) {
		t.Fatalf("metrics missing the quota rejection:\n%s", text)
	}
	if !strings.Contains(text, `outcome="admitted"`) {
		t.Fatal("metrics missing per-client admission counters")
	}
}
