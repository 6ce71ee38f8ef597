package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Fleet traffic shape. Recompile keys are drawn with Zipf(fleetZipf)
// popularity over a fixed rank order, each key's requests cycle through
// fleetSeeds VM seeds, and one request in five is an additive session.
// There is no recorded polynimad traffic to fit, so the exponent, the seed
// count and the 80/20 split are assumptions, not measurements; mix reports
// the cold, new-seed and repeat shares they produce.
const (
	fleetZipf    = 1.1
	fleetSeeds   = 4
	fleetAddFrac = 0.2
	fleetClients = 2
	// fleetEpisodes is how often an untraced run replays the traffic, each
	// time in another order against a fresh daemon.
	fleetEpisodes = 3
)

// fleetBench drives an in-process polynimad (one shared memory tier,
// default limits) over loopback HTTP from two closed-loop clients. A key's
// first recompile is cold, a new seed misses only the trace, a repeat is a
// memory hit; additive sessions run bzip2_like on the Figure-4 inputs.
type fleetBench struct {
	c      *config
	progs  []program
	keys   []key
	bodies [][]byte // per program: the marshaled image
	inputs []string // per program: base64 primary input ("" when none)
	bz     *program // bzip2_like at O2, nil when not in the corpus
	bzBody []byte
	// expect is the original bzip2_like run per (Figure-4 input, seed).
	expect map[addKey]vm.Result

	mu sync.Mutex
	// variants holds every distinct recompile response per key (each is run
	// in check); canon is the first response per key to a request with the
	// key's first seed, which the exact metrics use.
	variants []map[[32]byte][]byte
	canon    [][]byte
	// seen holds the current episode's response hashes per key; probes are
	// the replay checks of every episode so far.
	seen   []map[[32]byte]bool
	probes []checkResult
}

type seedKey struct {
	key  int
	seed int64
}

type addKey struct {
	input  int
	target string
	seed   int64
}

// fleetReq is one request of the fixed traffic multiset.
type fleetReq struct {
	key   int // recompile key index, or -1 for an additive session
	seed  int64
	first bool // the key's first-seed request (recompile only)
	add   addKey
}

func newFleet(c *config) bench { return &fleetBench{c: c} }

func (b *fleetBench) setup() error {
	// lightftp_like needs host functions a job request cannot carry.
	progs, err := compileCorpus(b.c, func(w *workloads.Workload) bool { return w.Name == "lightftp_like" })
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(progs))
	inputs := make([]string, len(progs))
	var bz *program
	var bzBody []byte
	for i := range progs {
		if bodies[i], err = progs[i].img.Marshal(); err != nil {
			return err
		}
		if in := progs[i].w.Input(); in.Data != nil {
			inputs[i] = base64.StdEncoding.EncodeToString(in.Data)
		}
		if progs[i].w.Name == "bzip2_like" && progs[i].level == 2 {
			bz, bzBody = &progs[i], bodies[i]
		}
	}
	expect := map[addKey]vm.Result{}
	if bz != nil {
		for ii, in := range workloads.Bzip2Inputs() {
			for s := int64(1); s <= fleetSeeds; s++ {
				m, err := vm.New(bz.img, s)
				if err != nil {
					return err
				}
				m.SetInput(in.Data)
				res := m.Run(fuel)
				if res.Fault != nil {
					return fmt.Errorf("bzip2_like original on %s: %w", in.Name, res.Fault)
				}
				for _, t := range targets {
					expect[addKey{ii, t, s}] = res
				}
			}
		}
	}
	b.progs, b.bodies, b.inputs, b.bz, b.bzBody, b.expect = progs, bodies, inputs, bz, bzBody, expect
	b.keys = keysOf(progs, "")
	b.variants = make([]map[[32]byte][]byte, len(b.keys))
	b.canon = make([][]byte, len(b.keys))
	b.probes = nil
	return nil
}

// traffic builds the fixed multiset of n requests: per-key recompile counts
// follow the Zipf weights of a fixed rank order (every key at least once),
// additive sessions spread evenly over input × target. The run's seed only
// shuffles the order.
func (b *fleetBench) traffic(n int) []fleetReq {
	nAdd := 0
	if b.bz != nil {
		nAdd = int(float64(n) * fleetAddFrac)
	}
	nRec := n - nAdd
	rank := rand.New(rand.NewSource(0)).Perm(len(b.keys)) // fixed across runs
	weights := make([]float64, len(b.keys))
	total := 0.0
	for r := range weights {
		weights[r] = 1 / math.Pow(float64(r+1), fleetZipf)
		total += weights[r]
	}
	counts := make([]int, len(b.keys))
	sum := 0
	for r, w := range weights {
		counts[r] = max(1, int(float64(nRec)*w/total))
		sum += counts[r]
	}
	for r := 0; sum < nRec; r = (r + 1) % len(counts) {
		counts[r]++
		sum++
	}
	var reqs []fleetReq
	for r, cnt := range counts {
		ki := rank[r]
		base := b.progs[b.keys[ki].prog].w.Input().Seed
		for i := 0; i < cnt; i++ {
			reqs = append(reqs, fleetReq{key: ki, seed: base + int64(i%fleetSeeds), first: i%fleetSeeds == 0})
		}
	}
	nIn := len(workloads.Bzip2Inputs())
	for i := 0; i < nAdd; i++ {
		a := addKey{input: i % nIn, target: targets[(i/nIn)%len(targets)], seed: 1 + int64(i/(nIn*len(targets)))%fleetSeeds}
		reqs = append(reqs, fleetReq{key: -1, add: a})
	}
	return reqs
}

// phase runs episodes of the same n requests, each against a fresh daemon,
// so every episode has the same cold start. Each episode sends them in its
// own seeded order: how often a memory hit overlaps the other client's cold
// job depends on the order, and the latencies of several orders average
// that out. Every request of every episode is its own job.
func (b *fleetBench) phase(ph *phase, n int) error {
	all := b.traffic(n)
	episodes := fleetEpisodes
	if b.c.trace {
		episodes = 1
	}
	for e := 0; e < episodes; e++ {
		order := shuffle(b.c.seed, e, len(all))
		sent := make([]fleetReq, len(all))
		for p := range sent {
			sent[p] = all[order[p]]
		}
		ph.values["fleet.mix_cold_frac"], ph.values["fleet.mix_new_seed_frac"], ph.values["fleet.mix_repeat_frac"] = mix(sent)
		if err := b.episode(ph, e*len(all), sent); err != nil {
			return err
		}
	}
	return nil
}

// route deals the send order out to the clients by what a request names:
// every request for one recompile key, or for one additive session, goes to
// the same client, in send order. A repeat therefore never races its key's
// first request, so it is always the memory hit the mix counts it as, and
// the share of hits does not vary with timing. Names are dealt largest
// first, each to the client with the fewest requests so far.
func route(sent []fleetReq, clients int) [][]int {
	type routeName struct {
		key int // recompile key, or -1 for an additive session
		add addKey
	}
	name := func(r fleetReq) routeName {
		if r.key >= 0 {
			return routeName{key: r.key}
		}
		return routeName{key: -1, add: r.add}
	}
	count := map[routeName]int{}
	var names []routeName // in order of first request
	for _, r := range sent {
		if count[name(r)] == 0 {
			names = append(names, name(r))
		}
		count[name(r)]++
	}
	sort.SliceStable(names, func(a, c int) bool { return count[names[a]] > count[names[c]] })
	owner := map[routeName]int{}
	load := make([]int, clients)
	for _, nm := range names {
		c := 0
		for i := range load {
			if load[i] < load[c] {
				c = i
			}
		}
		owner[nm] = c
		load[c] += count[nm]
	}
	queues := make([][]int, clients)
	for p, r := range sent {
		c := owner[name(r)]
		queues[c] = append(queues[c], p)
	}
	return queues
}

// mix classifies the recompile requests in the order they are sent: a key's
// first request is cold, the first request with each further seed misses the
// trace, and the rest repeat an earlier request. It returns each class's
// share of the recompile requests. The traffic multiset is fixed, so the
// shares are the same for every seed.
func mix(sent []fleetReq) (cold, newSeed, repeat float64) {
	keys := map[int]bool{}
	pairs := map[seedKey]bool{}
	n := 0.0
	for _, r := range sent {
		if r.key < 0 {
			continue
		}
		n++
		sk := seedKey{r.key, r.seed}
		switch {
		case !keys[r.key]:
			cold++
		case !pairs[sk]:
			newSeed++
		default:
			repeat++
		}
		keys[r.key], pairs[sk] = true, true
	}
	if n == 0 {
		return 0, 0, 0
	}
	return cold / n, newSeed / n, repeat / n
}

// episode sends one episode's requests to a fresh daemon; the job identity
// of the request at position p is base+p.
func (b *fleetBench) episode(ph *phase, base int, sent []fleetReq) error {
	b.seen = make([]map[[32]byte]bool, len(b.keys))
	cfg := serve.Config{Opts: coreOptions("")}
	if ph.traced {
		ph.shared = obs.New()
		cfg.Tracer = ph.shared
		for c := 0; c < fleetClients; c++ {
			ph.clientTID = append(ph.clientTID, ph.shared.AllocTID(fmt.Sprintf("client %d", c)))
		}
	}
	srv := httptest.NewServer(serve.New(cfg).Handler())
	defer srv.Close()
	client := srv.Client()
	queues := route(sent, fleetClients)
	for _, q := range queues {
		for i := range q {
			q[i] += base
		}
	}
	ph.round(queues, func(j *job, id int) error {
		return b.job(j, client, srv.URL, sent[id-base])
	})
	if ph.traced {
		if err := b.attribute(ph, client, srv.URL); err != nil {
			return err
		}
	}
	b.probe(client, srv.URL, sent)
	return nil
}

// probe checks, after the measured requests, that the daemon's memory tier
// serves what the episode computed. It repeats one request per recompile
// key, one at a time: with nothing racing it, the repeat must be a full
// memory hit, and its bytes must equal one of the episode's responses for
// the key (concurrent cold recompiles of a key may each store their own
// bytes; see the determinism probe in README.md).
func (b *fleetBench) probe(client *http.Client, base string, sent []fleetReq) {
	done := make([]bool, len(b.keys))
	for _, r := range sent {
		if r.key < 0 || done[r.key] {
			continue
		}
		done[r.key] = true
		k := b.keys[r.key]
		what := fmt.Sprintf("%s/%s seed %d repeat", b.progs[k.prog], k.target, r.seed)
		resp, hdr, err := b.post(client, base, r)
		if err == nil {
			if hits, _ := strconv.Atoi(hdr.Get("X-Polynima-Store-Mem-Hits")); hits != 3 {
				err = fmt.Errorf("%d memory hits, want 3 (CFG, trace, image)", hits)
			} else if !b.seen[r.key][sha256.Sum256(resp)] {
				err = fmt.Errorf("bytes match no response of the episode")
			}
		}
		b.probes = append(b.probes, checkResult{what, err})
	}
}

// post sends r and returns the response body and headers.
func (b *fleetBench) post(client *http.Client, base string, r fleetReq) ([]byte, http.Header, error) {
	var url, input string
	var body []byte
	if r.key >= 0 {
		k := b.keys[r.key]
		url = fmt.Sprintf("%s/v1/recompile?trace=1&target=%s&seed=%d", base, k.target, r.seed)
		body, input = b.bodies[k.prog], b.inputs[k.prog]
	} else {
		in := workloads.Bzip2Inputs()[r.add.input]
		url = fmt.Sprintf("%s/v1/additive?target=%s&seed=%d", base, r.add.target, r.add.seed)
		body, input = b.bzBody, base64.StdEncoding.EncodeToString(in.Data)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if input != "" {
		req.Header.Set("X-Polynima-Input", input)
	}
	res, err := client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer res.Body.Close()
	resp, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", res.StatusCode, bytes.TrimSpace(resp))
	}
	return resp, res.Header, nil
}

func (b *fleetBench) job(j *job, client *http.Client, base string, r fleetReq) error {
	name := "POST /v1/recompile"
	if r.key < 0 {
		name = "POST /v1/additive"
	}
	var resp []byte
	var hdr http.Header
	_, err := j.call(name, lServe, func() (err error) {
		resp, hdr, err = b.post(client, base, r)
		return err
	})
	j.done()
	if err != nil {
		return err
	}
	if r.key < 0 {
		return b.checkAdditive(r.add, resp)
	}
	j.add("serve.recompiles", 1)
	// A full hit serves the CFG, the trace and the image from memory.
	if hits, _ := strconv.Atoi(hdr.Get("X-Polynima-Store-Mem-Hits")); hits < 3 {
		j.add("serve.cold", 1)
	}
	b.keep(r, resp)
	return nil
}

// keep records a recompile response: a byte-identical repeat needs no new
// check, a response with new bytes is run in check.
func (b *fleetBench) keep(r fleetReq, resp []byte) {
	h := sha256.Sum256(resp)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.variants[r.key] == nil {
		b.variants[r.key] = map[[32]byte][]byte{}
	}
	if _, ok := b.variants[r.key][h]; !ok {
		b.variants[r.key][h] = resp
	}
	if r.first && b.canon[r.key] == nil {
		b.canon[r.key] = resp
	}
	if b.seen[r.key] == nil {
		b.seen[r.key] = map[[32]byte]bool{}
	}
	b.seen[r.key][h] = true
}

// checkAdditive compares an additive session's final run with the original
// binary on the same input and seed.
func (b *fleetBench) checkAdditive(a addKey, resp []byte) error {
	var got struct {
		ExitCode int    `json:"exit_code"`
		Output   []byte `json:"output_b64"`
	}
	if err := json.Unmarshal(resp, &got); err != nil {
		return fmt.Errorf("additive response: %w", err)
	}
	want := b.expect[a]
	if got.ExitCode != want.ExitCode || string(got.Output) != want.Output {
		return fmt.Errorf("additive %+v: exit %d output %q, original exit %d output %q",
			a, got.ExitCode, got.Output, want.ExitCode, want.Output)
	}
	return nil
}

func (b *fleetBench) check() *verdicts {
	v := &verdicts{}
	for _, p := range b.probes {
		v.note(p.what, p.err)
	}
	orig := originalCycles(b.progs, v)
	type item struct {
		ki    int
		data  []byte
		canon bool
	}
	var items []item
	for ki, vs := range b.variants {
		hs := make([][32]byte, 0, len(vs))
		for h := range vs {
			hs = append(hs, h)
		}
		sort.Slice(hs, func(a, c int) bool { return bytes.Compare(hs[a][:], hs[c][:]) < 0 })
		for _, h := range hs {
			items = append(items, item{ki: ki, data: vs[h], canon: bytes.Equal(vs[h], b.canon[ki])})
		}
	}
	imgs := make([]*image.Image, len(items))
	res := make([]vm.Result, len(items))
	for i, r := range runChecks(len(items), func(i int) (string, error) {
		k := b.keys[items[i].ki]
		pr := b.progs[k.prog]
		img, err := image.Unmarshal(items[i].data)
		if err != nil {
			return pr.String() + "/" + k.target, err
		}
		imgs[i] = img
		res[i], err = checked(pr.w, img)
		return pr.String() + "/" + k.target + " response", err
	}) {
		v.note(r.what, r.err)
		it := items[i]
		if r.err == nil && it.canon && orig[b.keys[it.ki].prog] > 0 {
			v.exact(imgs[i], res[i].Cycles, orig[b.keys[it.ki].prog])
		}
	}
	if extra := len(items) - len(b.keys); extra > 0 {
		fmt.Fprintf(os.Stderr, "fleet: %d recompile responses differed from an earlier response for the same key; each was run and checked\n", extra)
	}
	return v
}

func (b *fleetBench) close() {}

// attribute splits the client-side request time of a traced phase into
// layers: request overhead outside the daemon's job spans, the daemon's own
// job handling, and the pipeline spans it recorded (per track, each span's
// self time excludes the spans nested in it). Store and admission numbers
// come from the daemon's /metrics.
func (b *fleetBench) attribute(ph *phase, client *http.Client, base string) error {
	prom, err := scrape(client, base+"/metrics")
	if err != nil {
		return err
	}
	evs := ph.shared.Events()
	ph.events = evs
	names := map[int64]string{}
	byTrack := map[int64][]obs.Event{}
	var jobs time.Duration
	var liftUS, optUS, funcUS float64
	for _, ev := range evs {
		switch {
		case ev.Ph == obs.PhaseMetadata:
			for _, a := range ev.Args {
				if a.Key == "name" {
					names[ev.TID], _ = a.Val.(string)
				}
			}
		case ev.Ph != obs.PhaseComplete:
		case ev.Cat == "serve" && ev.Name == "job":
			jobs += time.Duration(ev.Dur) * time.Microsecond
		case ev.Name == "func":
			funcUS += float64(ev.Dur)
			for _, a := range ev.Args {
				us, _ := a.Val.(int64) // Duration.Microseconds
				switch a.Key {
				case "lift_us":
					liftUS += float64(us)
				case "opt_us":
					optUS += float64(us)
				}
			}
		default:
			byTrack[ev.TID] = append(byTrack[ev.TID], ev)
		}
	}
	move := func(to string, d time.Duration) {
		ph.layer[lServe] -= d
		ph.layer[to] += d
	}
	move(lOverhead, ph.layer[lServe]-jobs)
	for tid, evs := range byTrack {
		if !strings.HasPrefix(names[tid], "pipeline ") {
			continue
		}
		for name, self := range selfTimes(evs) {
			if name != "recompile" {
				move(pipelineLayer(name), self)
				continue
			}
			// The recompile span's own time is the parallel lift+optimize
			// section; split it by the workers' lift and opt time.
			if funcUS > 0 {
				move(lLifter, time.Duration(float64(self)*liftUS/funcUS))
				move(lOpt, time.Duration(float64(self)*optUS/funcUS))
				self -= time.Duration(float64(self) * (liftUS + optUS) / funcUS)
			}
			move(lCore, self)
		}
	}
	wall := float64(ph.wallSum) / 1e9
	n := float64(ph.jobs())
	getS, getN := prom.sum("store_tier_op_seconds_sum", "op", "get"), prom.sum("store_tier_op_seconds_count", "op", "get")
	putS, putN := prom.sum("store_tier_op_seconds_sum", "op", "put"), prom.sum("store_tier_op_seconds_count", "op", "put")
	hits, misses := prom.sum("store_tier_ops_total", "op", "hit"), prom.sum("store_tier_ops_total", "op", "miss")
	ph.values["store.get_frac"] = getS / wall
	ph.values["store.put_frac"] = putS / wall
	ph.values["store.gets_per_job"] = getN / n
	ph.values["store.puts_per_job"] = putN / n
	if hits+misses > 0 {
		ph.values["store.hit_ratio"] = hits / (hits + misses)
	}
	ph.values["store.corrupt"] = prom.sum("store_tier_ops_total", "op", "corrupt")
	ph.values["store.errors"] = prom.sum("store_tier_ops_total", "op", "error")
	ph.values["serve.queue_wait_frac"] = prom.sum("polynimad_queue_wait_seconds_sum", "class", "jobs") / wall
	ph.values["serve.rejected"] = prom.sum("polynimad_rejected_total", "", "")
	if rec := ph.count["serve.recompiles"]; rec > 0 {
		ph.values["serve.cold_frac"] = ph.count["serve.cold"] / rec
	}
	return nil
}

// pipelineLayer maps a daemon-side pipeline span to its layer.
func pipelineLayer(name string) string {
	switch name {
	case "disasm":
		return lDisasm
	case "icft-trace", "icft-run":
		return lTracer
	case "lower":
		return lLower
	case "lift-module":
		return lLifter
	case "opt-module", "inline-opt":
		return lOpt
	case "guest-run":
		return lVMRun
	}
	return lCore
}

// selfTimes sums, per span name, the spans' durations minus the spans nested
// directly inside them on the same track.
func selfTimes(evs []obs.Event) map[string]time.Duration {
	sort.Slice(evs, func(a, c int) bool {
		if evs[a].TS != evs[c].TS {
			return evs[a].TS < evs[c].TS
		}
		return evs[a].Dur > evs[c].Dur
	})
	out := map[string]time.Duration{}
	type open struct {
		name     string
		end      int64
		children int64
		dur      int64
	}
	var stack []open
	pop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out[top.name] += time.Duration(max(0, top.dur-top.children)) * time.Microsecond
		if len(stack) > 0 {
			stack[len(stack)-1].children += top.dur
		}
	}
	for _, ev := range evs {
		for len(stack) > 0 && ev.TS >= stack[len(stack)-1].end {
			pop()
		}
		stack = append(stack, open{name: ev.Name, end: ev.TS + ev.Dur, dur: ev.Dur})
	}
	for len(stack) > 0 {
		pop()
	}
	return out
}

// promSamples is a scraped Prometheus text exposition.
type promSamples []promSample

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// sum adds the samples of one family whose label key has value val (every
// sample when key is "").
func (p promSamples) sum(name, key, val string) float64 {
	s := 0.0
	for _, x := range p {
		if x.name == name && (key == "" || x.labels[key] == val) {
			s += x.value
		}
	}
	return s
}

func scrape(client *http.Client, url string) (promSamples, error) {
	res, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	var out promSamples
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], map[string]string{}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(name[i+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					labels[k] = strings.Trim(val, `"`)
				}
			}
			name = name[:i]
		}
		out = append(out, promSample{name, labels, v})
	}
	return out, sc.Err()
}
