package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/workloads"
)

// tinyConfig shrinks a workload to a few images and one pass.
func tinyConfig(t *testing.T, workload string, trace bool, names ...string) *config {
	t.Helper()
	var corpus []*workloads.Workload
	for _, n := range names {
		w := workloads.ByName(n)
		if w == nil {
			t.Fatalf("no workload %q", n)
		}
		corpus = append(corpus, w)
	}
	return &config{workload: workload, seed: 7, seconds: 1, trace: trace, corpus: corpus,
		amount: 1, workDir: t.TempDir()}
}

func runTiny(t *testing.T, c *config) *record {
	t.Helper()
	if c.workload == "fleet" {
		c.amount = 40 // requests per episode
	}
	rec, err := run(lookup(c.workload), c)
	if err != nil {
		t.Fatalf("%s: %v", c.workload, err)
	}
	if rec.Run.Failed != 0 || rec.Run.Attempted == 0 {
		t.Fatalf("%s: %d of %d failed: %v", c.workload, rec.Run.Failed, rec.Run.Attempted, rec.Errors)
	}
	return rec
}

// TestTinyRuns runs every workload on four images (two programs at O0 and
// O2; bzip2_like carries fleet's additive sessions) and checks that nothing
// fails and that every emitted metric is declared in BENCHMARK.json with its
// unit.
func TestTinyRuns(t *testing.T) {
	def, err := loadDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range append(def.EndToEnd, def.PerLayer...) {
		declared[m.Name] = m.Unit
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, d := range defs {
		for _, trace := range []bool{false, true} {
			rec := runTiny(t, tinyConfig(t, d.name, trace, "histogram", "bzip2_like"))
			want := def.EndToEnd
			if trace {
				want = def.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", d.name, trace, len(rec.Metrics), len(want))
			}
			for n, m := range rec.Metrics {
				if !name.MatchString(n) {
					t.Errorf("%s: metric name %q", d.name, n)
				}
				if u, ok := declared[n]; !ok || u != m.Unit {
					t.Errorf("%s: metric %s (%s) not declared as such in BENCHMARK.json", d.name, n, m.Unit)
				}
			}
		}
	}
}

// TestExactMetricsRepeat checks that the metrics a run measures by counting
// rather than timing are equal across two in-process runs.
func TestExactMetricsRepeat(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    bool
		program  string
		names    []string
	}{
		{"hybrid", false, "histogram", []string{"cycles_ratio_geomean", "code_insts_geomean"}},
		// linear_regression is proven free of spinloops, so its fences go.
		{"hybrid", true, "linear_regression", []string{"spindet.removable", "vm.spill_ops"}},
		// Traced hybrid runs mx64 only, which needs no fences; static lowers
		// for mx64w too.
		{"static", true, "histogram", []string{"lower.fences"}},
	} {
		var got [2]*record
		for i := range got {
			got[i] = runTiny(t, tinyConfig(t, tc.workload, tc.trace, tc.program))
		}
		for _, n := range tc.names {
			a, b := got[0].Metrics[n].Value, got[1].Metrics[n].Value
			if a != b || a == 0 {
				t.Errorf("%s %s: %v then %v", tc.workload, n, a, b)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	q := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}

func TestPercentileHarrellDavis(t *testing.T) {
	for _, tc := range []struct {
		s    []float64
		p    float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.5, 5.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.435115176660412},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 0.9, 54.808725173831036},
		{[]float64{3}, 0.9, 3},
	} {
		if got := percentile(tc.s, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.s, tc.p, got, tc.want)
		}
	}
}

// TestHostClockNormalizes checks the host-factor arithmetic on synthetic
// calibrations, one every second, each taking 10 ms: calibration time is
// left out, a kernel twice as slow as the reference halves a stretch, and
// so does half of the vCPUs' busy time stolen, however many vCPUs were idle.
func TestHostClockNormalizes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	clock := func(ns float64, stealPerS, busyPerS float64) *hostClock {
		h := &hostClock{}
		for i := 0; i < 6; i++ {
			h.samples = append(h.samples, hostSample{start: at(1000 * i), end: at(1000*i + 10),
				ns: ns, steal: stealPerS * float64(i), busy: busyPerS * float64(i)})
		}
		return h
	}
	for _, tc := range []struct {
		name string
		h    *hostClock
		want float64
	}{
		{"reference host", clock(probeRefNs, 0, 1), 2.97},
		{"slow kernel", clock(2*probeRefNs, 0, 1), 2.97 / 2},
		{"half stolen, one vCPU busy", clock(probeRefNs, 0.5, 0.5), 2.97 / 2},
		{"half stolen, two vCPUs busy", clock(probeRefNs, 1, 1), 2.97 / 2},
	} {
		// [10 ms, 3010 ms] holds the calibrations at 1000, 2000 and 3000 ms.
		if got := tc.h.seconds(at(10), at(3010)); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: seconds = %v, want %v", tc.name, got, tc.want)
		}
		if got := tc.h.measured(at(10), at(3010)); math.Abs(got-2.97) > 1e-9 {
			t.Errorf("%s: measured = %v, want 2.97", tc.name, got)
		}
	}
	var none *hostClock
	none.calibrate(true) // a traced run has no clock; calibrating is a no-op
}

func synthetic(workload string, failed int, metrics map[string]float64) *record {
	r := &record{Schema: recordSchema, Workload: workload, Metrics: map[string]metric{},
		Run: runInfo{Attempted: 100, Failed: failed}}
	for n, v := range metrics {
		r.Metrics[n] = metric{Value: v}
	}
	return r
}

func TestCompareVerdicts(t *testing.T) {
	def := &benchDef{EndToEnd: []metricDef{
		{Name: "lat", Better: "lower", Bound: 0.10},
		{Name: "rate", Better: "higher", Bound: 0.10},
		{Name: "exact", Better: "lower", Bound: 0.001},
	}}
	side := func(failed int, lat, rate []float64, exact float64) []*record {
		var out []*record
		for i := range lat {
			out = append(out, synthetic("w", failed, map[string]float64{"lat": lat[i], "rate": rate[i], "exact": exact}))
		}
		return out
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name     string
		old, new []*record
		want     map[string]string
	}{
		{"same", side(0, steady, steady, 1), side(0, steady, steady, 1),
			map[string]string{"lat": "unchanged", "rate": "unchanged", "exact": "unchanged", "failures": "unchanged"}},
		{"slower", side(0, steady, steady, 1), side(0, scale(steady, 1.2), scale(steady, 0.8), 1.01),
			map[string]string{"lat": "regressed", "rate": "regressed", "exact": "regressed"}},
		{"faster", side(0, steady, steady, 1), side(0, scale(steady, 0.8), scale(steady, 1.2), 0.99),
			map[string]string{"lat": "improved", "rate": "improved", "exact": "improved"}},
		{"noisy", side(0, noisy, noisy, 1), side(0, noisy, noisy, 1),
			map[string]string{"lat": "unresolved", "rate": "unresolved"}},
		{"failing", side(0, steady, steady, 1), side(3, steady, steady, 1),
			map[string]string{"failures": "regressed"}},
	} {
		got := map[string]string{}
		for _, r := range compareSets(def, tc.old, tc.new) {
			got[r.metric] = r.verdict
		}
		for m, v := range tc.want {
			if got[m] != v {
				t.Errorf("%s: %s is %s, want %s", tc.name, m, got[m], v)
			}
		}
	}
}

// TestCompareExitStatus checks that -compare fails on a regression and reads
// records from files holding several of them.
func TestCompareExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...*record) string {
		var buf bytes.Buffer
		for _, r := range recs {
			if err := json.NewEncoder(&buf).Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.jsonl", synthetic("w", 0, map[string]float64{"job_p50_ms": 10}),
		synthetic("w", 0, map[string]float64{"job_p50_ms": 10}))
	same := write("same.jsonl", synthetic("w", 0, map[string]float64{"job_p50_ms": 10}))
	worse := write("worse.jsonl", synthetic("w", 0, map[string]float64{"job_p50_ms": 20}))
	var out strings.Builder
	if code := compareMain(&out, "../BENCHMARK.json", old, same); code != 0 {
		t.Errorf("unchanged compare exited %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain(&out, "../BENCHMARK.json", old, worse); code == 0 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("regressed compare exited %d:\n%s", code, out.String())
	}
}
