package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/serve"
	"repro/internal/store"
)

const threadedSrc = `
extern thread_create;
extern thread_join;
extern print_i64;
var total = 0;
func worker(arg) {
	var i;
	for (i = 0; i < 50; i = i + 1) { atomic_add(&total, arg); }
	return 0;
}
func main() {
	var t1 = thread_create(worker, 1);
	var t2 = thread_create(worker, 3);
	thread_join(t1);
	thread_join(t2);
	print_i64(total);
	return 0;
}`

func compileMarshal(t *testing.T, src string) []byte {
	t.Helper()
	img, _, err := cc.Compile(src, cc.Config{Name: "t", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// localRecompile is the reference: the same image through a plain private
// project, the byte-identity oracle for every service path.
func localRecompile(t *testing.T, imgBytes []byte) []byte {
	t.Helper()
	img, err := image.Unmarshal(imgBytes)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProject(img, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	out, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func newServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.Opts.Fuel == 0 {
		cfg.Opts = core.DefaultOptions()
	}
	s := serve.New(cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func postRecompile(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/recompile", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestServeRecompileMatchesLocal pins the service determinism contract: the
// daemon's response bytes equal a local recompile's bytes, cold and warm,
// and the second request is served from the shared memory tier.
func TestServeRecompileMatchesLocal(t *testing.T) {
	imgBytes := compileMarshal(t, threadedSrc)
	want := localRecompile(t, imgBytes)
	_, srv := newServer(t, serve.Config{})

	resp, cold := postRecompile(t, srv.URL, imgBytes)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp.StatusCode, cold)
	}
	if !bytes.Equal(cold, want) {
		t.Fatal("cold daemon recompile diverged from local bytes")
	}

	resp, warm := postRecompile(t, srv.URL, imgBytes)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d", resp.StatusCode)
	}
	if !bytes.Equal(warm, want) {
		t.Fatal("warm daemon recompile diverged from local bytes")
	}
	hits, _ := strconv.Atoi(resp.Header.Get("X-Polynima-Store-Mem-Hits"))
	if hits == 0 {
		t.Fatal("second request did not hit the shared memory tier")
	}
}

// TestServeStoreEndpointsViaRemote drives the daemon's blob endpoints with
// the real client (store.Remote): a full roundtrip over the wire protocol,
// promotion into the daemon's memory tier, and an authoritative 404 miss.
func TestServeStoreEndpointsViaRemote(t *testing.T) {
	s, srv := newServer(t, serve.Config{})
	r, err := store.NewRemote(srv.URL, store.RemoteOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	k := store.KeyOf([]byte("k"))
	want := []byte("fleet-shared artifact")
	r.Put("func", k, want)
	got, tier, ok := r.Get("func", k)
	if !ok || tier != "remote" || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %q, %v", got, tier, ok)
	}
	// The PUT warmed the daemon's shared tier directly.
	if data, tier, ok := s.Store().Get("func", k); !ok || tier != "mem" || !bytes.Equal(data, want) {
		t.Fatalf("daemon store Get = %q, %q, %v, want mem hit", data, tier, ok)
	}
	if _, _, ok := r.Get("func", store.KeyOf([]byte("absent"))); ok {
		t.Fatal("hit on absent key")
	}
	st := r.Stats()["remote"]
	if st.Hits != 1 || st.Misses != 1 || st.Errors != 0 {
		t.Fatalf("client counters = %+v", st)
	}
}

// TestServeRecompileWithDeadBacking: a daemon whose backing tier is a dead
// remote store still serves byte-identical results — remote failure
// degrades to counted misses, never to different bytes or errors.
func TestServeRecompileWithDeadBacking(t *testing.T) {
	dead, err := store.NewRemote("http://127.0.0.1:1", store.RemoteOptions{
		Timeout: 100 * time.Millisecond, Retries: 0, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	imgBytes := compileMarshal(t, threadedSrc)
	want := localRecompile(t, imgBytes)
	s, srv := newServer(t, serve.Config{Backing: dead})

	resp, got := postRecompile(t, srv.URL, imgBytes)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recompile over a dead backing tier diverged from local bytes")
	}
	if s.Store().Stats()["remote"].Errors == 0 {
		t.Fatal("dead backing tier recorded no errors")
	}
}

// TestServeConcurrentRecompiles hammers one daemon from several clients at
// once (run under -race in CI): every response must be byte-identical to
// the local oracle for its program.
func TestServeConcurrentRecompiles(t *testing.T) {
	progs := make([][2][]byte, 3) // {input image, expected output}
	for i := range progs {
		src := strings.Replace(threadedSrc, "i < 50", fmt.Sprintf("i < %d", 40+10*i), 1)
		in := compileMarshal(t, src)
		progs[i] = [2][]byte{in, localRecompile(t, in)}
	}
	_, srv := newServer(t, serve.Config{})

	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for w := 0; w < 4; w++ {
		for i := range progs {
			wg.Add(1)
			go func(w, i int) {
				defer wg.Done()
				resp, got := postRecompile(t, srv.URL, progs[i][0])
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d prog %d: status %d", w, i, resp.StatusCode)
					return
				}
				if !bytes.Equal(got, progs[i][1]) {
					errs <- fmt.Errorf("worker %d prog %d: bytes diverged", w, i)
				}
			}(w, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeTraceAndAdditive covers the two dynamic-analysis job kinds.
func TestServeTraceAndAdditive(t *testing.T) {
	imgBytes := compileMarshal(t, threadedSrc)
	_, srv := newServer(t, serve.Config{})

	resp, err := http.Post(srv.URL+"/v1/trace?seed=7", "application/octet-stream",
		bytes.NewReader(imgBytes))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Runs  int    `json:"runs"`
		Insts uint64 `json:"insts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || tr.Runs != 1 || tr.Insts == 0 {
		t.Fatalf("trace: status %d, %+v", resp.StatusCode, tr)
	}

	resp, err = http.Post(srv.URL+"/v1/additive?maxloops=8", "application/octet-stream",
		bytes.NewReader(imgBytes))
	if err != nil {
		t.Fatal(err)
	}
	var ar struct {
		ExitCode int    `json:"exit_code"`
		Output   []byte `json:"output_b64"`
		Image    []byte `json:"image"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ar.ExitCode != 0 {
		t.Fatalf("additive: status %d, exit %d (%q)", resp.StatusCode, ar.ExitCode, ar.Output)
	}
	if !strings.Contains(string(ar.Output), "200") {
		t.Fatalf("additive output = %q, want the program's printed total", ar.Output)
	}
	if _, err := image.Unmarshal(ar.Image); err != nil {
		t.Fatalf("additive returned an unloadable image: %v", err)
	}
}

// TestServeRejectsBadRequests pins the client-error surface: garbage
// bodies, bad parameters, malformed store paths, and corrupt frames are
// all 4xx — never 5xx, never stored.
func TestServeRejectsBadRequests(t *testing.T) {
	s, srv := newServer(t, serve.Config{})
	imgBytes := compileMarshal(t, threadedSrc)
	hexKey := store.KeyOf([]byte("k")).Hex()

	put := func(path string, body []byte) *http.Response {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+path, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	post := func(path string, body []byte) *http.Response {
		resp, err := http.Post(srv.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	cases := []struct {
		name string
		resp *http.Response
		want int
	}{
		{"garbage image", post("/v1/recompile", []byte("not an image")), http.StatusBadRequest},
		{"bad seed", post("/v1/recompile?seed=ten", imgBytes), http.StatusBadRequest},
		{"bad maxloops", post("/v1/additive?maxloops=0", imgBytes), http.StatusBadRequest},
		// The literal "/../" form is cleaned away by ServeMux itself; the
		// percent-encoded form survives routing and must die in validation.
		{"store ns traversal", put("/store/v1/%2e%2e/"+hexKey, store.EncodeFrame([]byte("v"))), http.StatusBadRequest},
		{"store ns invalid char", put("/store/v1/a$b/"+hexKey, store.EncodeFrame([]byte("v"))), http.StatusBadRequest},
		{"store short key", put("/store/v1/func/abcd", store.EncodeFrame([]byte("v"))), http.StatusBadRequest},
		{"store corrupt frame", put("/store/v1/func/"+hexKey, []byte("not a frame")), http.StatusBadRequest},
		{"store get bad key", mustGet(t, srv.URL+"/store/v1/func/zzzz"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if tc.resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, tc.resp.StatusCode, tc.want)
		}
	}
	// Nothing above may have landed in the store.
	if _, _, ok := s.Store().Get("func", store.KeyOf([]byte("k"))); ok {
		t.Fatal("a rejected PUT reached the store")
	}
}

// TestServeRejectsImageWithoutText posts an image whose code section is not
// named .text, the one input disassembly rejects. With the daemon's store
// on, the project does not disassemble until a stage needs the graph, so
// NewProject checks for the section itself: both a plain recompile and a
// traced one must answer 422, not a 500 from a later stage.
func TestServeRejectsImageWithoutText(t *testing.T) {
	_, srv := newServer(t, serve.Config{})
	img, _, err := cc.Compile(threadedSrc, cc.Config{Name: "t", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	img.Text().Name = ".code"
	body, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/recompile", "/v1/recompile?trace=1"} {
		resp, err := http.Post(srv.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d (%s), want 422", path, resp.StatusCode, bytes.TrimSpace(msg))
		}
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestServeMetricsAndHealth: /healthz answers, /metrics carries the job
// counters and the shared store's per-tier ops.
func TestServeMetricsAndHealth(t *testing.T) {
	imgBytes := compileMarshal(t, threadedSrc)
	_, srv := newServer(t, serve.Config{})
	if resp := mustGet(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	postRecompile(t, srv.URL, imgBytes)
	postRecompile(t, srv.URL, imgBytes)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`polynimad_jobs_total{kind="recompile",outcome="ok"} 2`,
		`polynimad_jobs_inflight 0`,
		`polynimad_job_seconds_total{kind="recompile",outcome="ok"}`,
		`polynimad_job_seconds_bucket{kind="recompile",outcome="ok",le="+Inf"} 2`,
		`polynimad_job_seconds_count{kind="recompile",outcome="ok"} 2`,
		`store_tier_ops_total{tier="mem",op="hit"}`,
		`store_tier_op_seconds_bucket{tier="mem",op="put",le="+Inf"}`,
		`polynima_build_info{go_version="` + runtime.Version() + `"`,
		`polynimad_draining 0`,
		"go_goroutines ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}
