// Command benchmark is the repository's end-to-end benchmark: four
// closed-loop workloads over the whole recompilation system, each printing
// its end-to-end metrics (or, traced, its per-layer metrics) after checking
// that every output is correct. See README.md for the workloads, metrics
// and how to run, trace and compare.
//
//	bash benchmark/run.sh --workload static --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh                   # all four, each in a child process
//	bash benchmark/run.sh -compare OLD NEW  # records or directories of records
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// workloadDef names a workload and converts the requested measuring time
// into a fixed amount of work: passes over the corpus, or for fleet the
// requests of each of its episodes. Both sides of a comparison therefore
// run exactly the same jobs. The rates were set at the seed commit to keep
// every run steady while all of the benchmark's runs fit its time limit, so
// the untraced phase does not take exactly the requested time (README.md
// gives the lengths).
type workloadDef struct {
	name   string
	make   func(*config) bench
	amount func(seconds int) int
	traced func(amount int) int
}

var defs = []workloadDef{
	{"static", newStatic, perSecond(1.0, 2), func(int) int { return 5 }},
	{"hybrid", newHybrid, perSecond(0.2, 2), func(int) int { return 1 }},
	{"warm", newWarm, perSecond(9, 2), func(int) int { return 5 }},
	{"fleet", newFleet, perSecond(120, 1), func(n int) int { return max(1, n/2) }},
}

func perSecond(rate float64, floor int) func(int) int {
	return func(s int) int { return max(floor, int(math.Round(rate*float64(s)))) }
}

func lookup(name string) *workloadDef {
	for i := range defs {
		if defs[i].name == name {
			return &defs[i]
		}
	}
	return nil
}

func main() { os.Exit(mainErr(os.Args[1:])) }

func mainErr(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	wl := fs.String("workload", "", "static, hybrid, warm or fleet (empty: all four, each in a child process)")
	seed := fs.Int64("seed", 1, "orders the jobs and the fleet traffic")
	seconds := fs.Int("seconds", 10, "measuring time the job counts are calibrated to")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	recordDir := fs.String("record", ".bench_build/results", "directory for the run record")
	traceOut := fs.String("tracefile", "", "Chrome trace of a traced run (default .bench_build/traces/WORKLOAD-seedN.json)")
	compare := fs.Bool("compare", false, "compare two record sets: -compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare OLD NEW")
			return 2
		}
		return compareMain(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	if *wl == "" {
		return runAll(*seed, *seconds, *recordDir)
	}
	def := lookup(*wl)
	if def == nil || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "bad arguments: workload %q, trace %d, seconds %d\n", *wl, *trace, *seconds)
		return 2
	}
	c := &config{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workDir: filepath.Join(".bench_build", "tmp"), traceOut: *traceOut}
	if c.trace && c.traceOut == "" {
		c.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *wl, *seed))
	}
	rec, err := run(def, c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *wl, err)
		return 1
	}
	path := filepath.Join(*recordDir, fmt.Sprintf("%s-seed%d-trace%d.json", *wl, *seed, *trace))
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintf(os.Stderr, "writing record: %v\n", err)
		return 1
	}
	return printResult(rec)
}

// run executes one workload: set-up (repeated), the measured phase or the
// untraced and traced phases, then the output checks.
func run(def *workloadDef, c *config) (*record, error) {
	b := def.make(c)
	defer b.close()
	var clock *hostClock
	if !c.trace {
		var err error
		if clock, err = newHostClock(); err != nil {
			return nil, err
		}
		defer clock.close()
	}
	var setups []span
	clock.calibrate(true)
	for start := time.Now(); len(setups) < minSetupReps ||
		(len(setups) < maxSetupReps && time.Since(start) < setupBudget); {
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, span{t0, time.Now()})
		clock.calibrate(true)
	}
	amount := c.amount
	if amount == 0 {
		amount = def.amount(c.seconds)
		if c.trace {
			amount = def.traced(amount)
		}
	}
	rec := &record{Schema: recordSchema, Workload: c.workload, Trace: c.trace, Host: host(),
		Run: runInfo{Seed: c.seed, Seconds: c.seconds, Amount: amount}}
	if !c.trace {
		ph := newPhase(false, clock)
		if err := b.phase(ph, amount); err != nil {
			return nil, err
		}
		clock.calibrate(true)
		ph.values["host_kernel_factor"], ph.values["host_steal_frac"] = clock.summary()
		ph.values["peak_rss_mb"] = peakRSSMB()
		v := b.check()
		rec.Metrics = endToEnd(ph, setups, v)
		rec.Notes = ph.values
		rec.tally([]*phase{ph}, v)
	} else {
		u, t := newPhase(false, nil), newPhase(true, nil)
		for _, ph := range []*phase{u, t} {
			if err := b.phase(ph, amount); err != nil {
				return nil, err
			}
		}
		v := b.check()
		rec.Metrics = perLayer(u, t)
		rec.tally([]*phase{u, t}, v)
		if un := rec.Metrics[unattrFrac].Value; un > maxUnattributed {
			rec.Run.Failed++
			rec.Errors = append(rec.Errors, fmt.Sprintf("%s %.4f exceeds %.2f", unattrFrac, un, maxUnattributed))
		}
		if c.traceOut != "" {
			if err := writeTrace(c.traceOut, t.events); err != nil {
				return nil, fmt.Errorf("writing trace: %w", err)
			}
		}
	}
	return rec, nil
}

// tally counts every job and check the run attempted, and its failures.
func (r *record) tally(phases []*phase, v *verdicts) {
	for _, ph := range phases {
		r.Run.Jobs += ph.jobs()
		r.Run.Failed += ph.failed
		r.Errors = append(r.Errors, ph.errs...)
	}
	r.Run.Attempted = r.Run.Jobs + v.attempted
	r.Run.Failed += v.failed
	r.Errors = append(r.Errors, v.errs...)
}

// printResult writes a readable summary to stderr and the result line the
// benchmark's caller parses as the last line of stdout.
func printResult(rec *record) int {
	for _, e := range rec.Errors[:min(len(rec.Errors), 20)] {
		fmt.Fprintln(os.Stderr, "FAIL:", e)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Run.Failed == 0, rec.Run.Attempted, rec.Run.Failed, map[string]value{}}
	for _, n := range names {
		m := rec.Metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		fmt.Fprintf(os.Stderr, "%-10s %-30s %14.6g %s\n", rec.Workload, n, m.Value, m.Unit)
		out.Metrics[n] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload, untraced and traced, each in its own child
// process, and prints one summary row per metric.
func runAll(seed int64, seconds int, recordDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	status := 0
	for _, d := range defs {
		for _, tr := range []string{"0", "1"} {
			cmd := exec.Command(exe, "--workload", d.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", tr, "--record", recordDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s trace=%s: %v\n", d.name, tr, err)
				status = 1
			}
			if last := lastLine(out); last != "" {
				fmt.Printf("%s trace=%s %s\n", d.name, tr, last)
			}
		}
	}
	return status
}

func lastLine(b []byte) string {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = sc.Text()
		}
	}
	return last
}
