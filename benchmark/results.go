package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Units of every metric the benchmark emits. BENCHMARK.json declares the
// same names and units (a test keeps the two in step); the bounds and
// directions live only there.
var endToEndUnits = map[string]string{
	"setup_s":              "s",
	"jobs_per_s":           "1/s",
	"job_p50_ms":           "ms",
	"job_p90_ms":           "ms",
	"retained_heap_mb":     "MiB",
	"alloc_mb_per_job":     "MB",
	"cycles_ratio_geomean": "ratio",
	"code_insts_geomean":   "count",
}

var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"bench.trace_overhead_frac":   "frac",
		"tracer.guest_insts":          "count",
		"core.liftopt_parallelism":    "ratio",
		"opt.nondeterministic_images": "count",
		"lower.code_insts":            "count",
		"lower.fences":                "count",
		"spindet.removable":           "frac",
		"vm.minsts_per_s.orig":        "Minst/s",
		"vm.minsts_per_s.mx64":        "Minst/s",
		"vm.minsts_per_s.mx64w":       "Minst/s",
		"vm.icache_hit_ratio":         "ratio",
		"vm.tlb_hit_ratio":            "ratio",
		"vm.spill_ops":                "count",
		"vm.fences_executed":          "count",
		"store.get_frac":              "frac",
		"store.put_frac":              "frac",
		"store.gets_per_job":          "count",
		"store.puts_per_job":          "count",
		"store.hit_ratio":             "ratio",
		"store.read_kb_per_job":       "KiB",
		"store.corrupt":               "count",
		"store.errors":                "count",
		"serve.queue_wait_frac":       "frac",
		"serve.cold_frac":             "frac",
		"serve.rejected":              "count",
		unattrFrac:                    "frac",
	}
	for _, l := range partition {
		u[l] = "frac"
	}
	return u
}()

// maxUnattributed is the share of job wall time the traced run may leave
// outside every layer span before it fails.
const maxUnattributed = 0.05

// metric is one reported number with the distribution it summarizes.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
}

func summarize(value float64, unit string, samples []float64) metric {
	m := metric{Value: value, Unit: unit, Samples: len(samples)}
	if len(samples) > 0 {
		s := append([]float64(nil), samples...)
		sort.Float64s(s)
		q := quartiles(s)
		m.Q1, m.Median, m.Q3 = q[0], q[1], q[2]
	}
	return m
}

// record is one run's result file: what ran, where, and every metric.
type record struct {
	Schema   string             `json:"schema"`
	Workload string             `json:"workload"`
	Trace    bool               `json:"trace"`
	Host     hostInfo           `json:"host"`
	Run      runInfo            `json:"run"`
	Metrics  map[string]metric  `json:"metrics"`
	Notes    map[string]float64 `json:"notes,omitempty"`
	Errors   []string           `json:"errors,omitempty"`
}

const recordSchema = "polynima-e2e/1"

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

type runInfo struct {
	Seed      int64 `json:"seed"`
	Seconds   int   `json:"seconds"`
	Amount    int   `json:"amount"` // passes, or requests for fleet
	Jobs      int   `json:"jobs"`
	Attempted int   `json:"attempted"`
	Failed    int   `json:"failed"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// Only a checkout whose root is the working directory names a commit.
	if _, err := os.Stat(".git"); err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// endToEnd computes the untraced run's metrics from its phase and set-ups,
// and notes the timings as measured beside them.
func endToEnd(ph *phase, setups []span, v *verdicts) map[string]metric {
	out := map[string]metric{}
	put := func(name string, value float64, samples []float64) {
		out[name] = summarize(value, endToEndUnits[name], samples)
	}
	setupS, rates, lat := timings(ph, setups, ph.clock.seconds)
	put("setup_s", median(setupS), setupS)
	put("jobs_per_s", median(rates), rates)
	put("job_p50_ms", percentile(lat, 0.50), lat)
	put("job_p90_ms", percentile(lat, 0.90), lat)
	setupS, rates, lat = timings(ph, setups, ph.clock.measured)
	ph.values["measured.setup_s"], ph.values["measured.jobs_per_s"] = median(setupS), median(rates)
	ph.values["measured.job_p50_ms"], ph.values["measured.job_p90_ms"] = percentile(lat, 0.50), percentile(lat, 0.90)
	var alloc uint64
	var allocs, heaps []float64
	for _, r := range ph.rounds {
		alloc += r.alloc
		heaps = append(heaps, r.heapMB)
		allocs = append(allocs, float64(r.alloc)/(1<<20)/float64(r.jobs))
	}
	jobs := float64(ph.jobs())
	put("retained_heap_mb", slices.Max(heaps), heaps)
	put("alloc_mb_per_job", float64(alloc)/(1<<20)/jobs, allocs)
	put("cycles_ratio_geomean", geomean(v.ratios), v.ratios)
	put("code_insts_geomean", geomean(v.insts), v.insts)
	return out
}

// timings returns, with every time measured by length, the set-up times,
// each round's throughput, and each job's latency (the median of its runs),
// sorted.
func timings(ph *phase, setups []span, length func(a, b time.Time) float64) (setupS, rates, lat []float64) {
	for _, s := range setups {
		setupS = append(setupS, length(s.start, s.end))
	}
	for _, r := range ph.rounds {
		rates = append(rates, float64(r.jobs)/length(r.start, r.end))
	}
	runs := map[int][]float64{}
	for _, t := range ph.timed {
		runs[t.id] = append(runs[t.id], 1000*length(t.start, t.end))
	}
	for _, r := range runs {
		lat = append(lat, median(r))
	}
	sort.Float64s(lat)
	return setupS, rates, lat
}

// perLayer computes a traced run's metrics from its untraced phase u and
// traced phase t.
func perLayer(u, t *phase) map[string]metric {
	out := map[string]metric{}
	put := func(name string, value float64) {
		out[name] = metric{Value: value, Unit: perLayerUnits[name], Samples: t.jobs(), Median: value, Q1: value, Q3: value}
	}
	wall := float64(t.wallSum)
	for _, l := range partition {
		put(l, float64(t.layer[l])/wall)
	}
	put(unattrFrac, float64(t.wallSum-t.callSum)/wall)
	put("bench.trace_overhead_frac", meanDur(t.lat)/meanDur(u.lat)-1)
	jobs := float64(t.jobs())
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := t.count
	put("tracer.guest_insts", c["tracer.guest_insts"]/jobs)
	put("core.liftopt_parallelism", ratio(c["core.liftopt_cpu"], c["core.liftopt_wall"]))
	put("lower.code_insts", ratio(c["lower.code_insts"], c["lower.images"]))
	put("lower.fences", ratio(c["lower.fences"], c["lower.images"]))
	put("spindet.removable", ratio(c["spindet.removable"], c["spindet.runs"]))
	for _, k := range []string{"orig", "mx64", "mx64w"} {
		put("vm.minsts_per_s."+k, ratio(c["vm.insts."+k], c["vm.ns."+k])*1e3)
	}
	if t.sink != nil {
		vc := t.sink.Snapshot()
		put("vm.icache_hit_ratio", vc.ICacheHitRatio())
		put("vm.tlb_hit_ratio", vc.TLBHitRatio())
		put("vm.spill_ops", float64(vc.SpillOps)/jobs)
		put("vm.fences_executed", float64(vc.Fences)/jobs)
	}
	for name := range perLayerUnits {
		if _, ok := out[name]; !ok {
			put(name, t.values[name])
		}
	}
	return out
}

func meanDur(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return float64(s) / float64(len(ds))
}

// quartiles returns the three cut points of sorted s by the method Python's
// statistics.quantiles(s, n=4) uses by default ("exclusive").
func quartiles(s []float64) [3]float64 {
	var q [3]float64
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the Harrell-Davis estimate of the p-quantile of sorted s: a
// mean of all the order statistics, weighted by the Beta(p(n+1), (1-p)(n+1))
// distribution. One order statistic jumps whenever two jobs near the
// quantile trade places, and the job times of a corpus have wide gaps
// there; the weighted mean moves only as far as the times do.
func percentile(s []float64, p float64) float64 {
	n := float64(len(s))
	a, b := p*(n+1), (1-p)*(n+1)
	sum, prev := 0.0, 0.0
	for i, x := range s {
		cur := betaInc(float64(i+1)/n, a, b)
		sum += (cur - prev) * x
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b), evaluated
// by its continued fraction (Numerical Recipes, section 6.4).
func betaInc(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

func betaCF(x, a, b float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-14 {
			break
		}
	}
	return h
}

// geomean is the geometric mean, summed in sorted order so that equal sets
// give bit-identical results whatever order they were produced in.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(s)))
}

// writeJSON writes v to path, creating its directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTrace writes events as a Chrome trace_event JSON array.
func writeTrace(path string, evs []obs.Event) error {
	type jsonEvent struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   int64          `json:"ts"`
		Dur  *int64         `json:"dur,omitempty"`
		PID  int64          `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	out := make([]jsonEvent, len(evs))
	for i, ev := range evs {
		out[i] = jsonEvent{Name: ev.Name, Cat: ev.Cat, Ph: ev.Ph, TS: ev.TS, PID: 1, TID: ev.TID}
		if ev.Ph == obs.PhaseComplete {
			out[i].Dur = &evs[i].Dur
		}
		if len(ev.Args) > 0 {
			out[i].Args = map[string]any{}
			for _, a := range ev.Args {
				out[i].Args[a.Key] = a.Val
			}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := json.NewEncoder(f).Encode(out)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
