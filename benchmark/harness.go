package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/mx"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/spindet"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// fuel bounds every guest run the benchmark makes (internal/bench's value).
const fuel = 4_000_000_000

// A run repeats its workload's set-up at least minSetupReps times, and
// keeps repeating a quick one until setupBudget has passed (at most
// maxSetupReps times). setup_s is the median, so neither a one-off stall nor
// the scheduling noise of a few-millisecond set-up reads as a regression.
const (
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = time.Second
)

// targets are the lowering targets every corpus image is recompiled for, and
// levels the mcc optimization levels every corpus program is compiled at.
var (
	targets = []string{"mx64", "mx64w"}
	levels  = []int{0, 2}
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// corpus selects the programs (default: all workloads); amount, when
	// nonzero, replaces the job count derived from seconds. Tests shrink
	// both.
	corpus []*workloads.Workload
	amount int
	// workDir is scratch space inside the checkout; traceOut receives the
	// Chrome trace of a traced run ("" writes none).
	workDir  string
	traceOut string
}

func (c *config) programs() []*workloads.Workload {
	if c.corpus != nil {
		return c.corpus
	}
	return workloads.All()
}

// program is one compiled corpus image.
type program struct {
	w     *workloads.Workload
	level int
	img   *image.Image
}

func (p program) String() string { return fmt.Sprintf("%s/O%d", p.w.Name, p.level) }

// compileCorpus compiles every selected program at every selected level.
func compileCorpus(c *config, skip func(*workloads.Workload) bool) ([]program, error) {
	var out []program
	for _, w := range c.programs() {
		if skip != nil && skip(w) {
			continue
		}
		for _, lvl := range levels {
			img, err := w.Compile(lvl)
			if err != nil {
				return nil, err
			}
			out = append(out, program{w: w, level: lvl, img: img})
		}
	}
	return out, nil
}

// key is one (image, target) recompilation job.
type key struct {
	prog   int // index into the corpus
	target string
}

// keysOf lists every (image, target) pair of the corpus, optionally only
// those for one target.
func keysOf(progs []program, only string) []key {
	var out []key
	for i := range progs {
		for _, t := range targets {
			if only == "" || t == only {
				out = append(out, key{prog: i, target: t})
			}
		}
	}
	return out
}

// shuffle returns round r's job order for the run's seed: the seed only
// orders a fixed set of jobs, so every run does the same work.
func shuffle(seed int64, r, n int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(r))).Perm(n)
}

// coreOptions returns the project options every workload starts from.
func coreOptions(target string) core.Options {
	o := core.DefaultOptions()
	o.Target = target
	o.Workers = runtime.NumCPU()
	return o
}

// imageHash fingerprints an image's section bytes (the recompiled code is
// what the determinism probe compares).
func imageHash(img *image.Image) [32]byte {
	h := sha256.New()
	for _, s := range img.Sections {
		h.Write([]byte(s.Name))
		h.Write(s.Data)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// codeStats counts the instructions and fences of a recompiled image's
// lowered code section.
func codeStats(img *image.Image) (insts, fences int) {
	sec := img.Section(".ltext")
	if sec == nil {
		return 0, 0
	}
	code := sec.Data
	for len(code) > 0 {
		in, n := mx.Decode(code)
		if n == 0 {
			break
		}
		insts++
		if in.Op == mx.MFENCE {
			fences++
		}
		code = code[n:]
	}
	return insts, fences
}

// checked runs img with w's primary input and verifies the result.
func checked(w *workloads.Workload, img *image.Image) (vm.Result, error) {
	res, err := w.Run(img, fuel)
	if err != nil {
		return res, err
	}
	return res, w.Check(res)
}

// verdicts is the outcome of a workload's correctness checks plus the exact
// metrics they measure.
type verdicts struct {
	attempted, failed int
	errs              []string
	ratios            []float64 // recompiled/original cycles per (image, target)
	insts             []float64 // recompiled code instructions per (image, target)
}

func (v *verdicts) note(what string, err error) {
	v.attempted++
	if err != nil {
		v.failed++
		v.errs = append(v.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// exact records one (image, target)'s exact metrics.
func (v *verdicts) exact(rec *image.Image, recCycles, origCycles uint64) {
	insts, _ := codeStats(rec)
	v.ratios = append(v.ratios, float64(recCycles)/float64(origCycles))
	v.insts = append(v.insts, float64(insts))
}

// checkResult is what one check verified and its outcome.
type checkResult struct {
	what string
	err  error
}

// runChecks runs n checks on every CPU; check(i) reports what it verified.
func runChecks(n int, check func(i int) (string, error)) []checkResult {
	out := make([]checkResult, n)
	pool.Run(runtime.NumCPU(), n, func(_, i int) error {
		out[i].what, out[i].err = check(i)
		return nil
	})
	return out
}

// originalCycles runs every corpus image once and returns its checked cycle
// count, noting each run in v.
func originalCycles(progs []program, v *verdicts) []uint64 {
	cyc := make([]uint64, len(progs))
	for _, r := range runChecks(len(progs), func(i int) (string, error) {
		res, err := checked(progs[i].w, progs[i].img)
		cyc[i] = res.Cycles
		return progs[i].String() + " original", err
	}) {
		v.note(r.what, r.err)
	}
	return cyc
}

// checkImages runs each key's recompiled image, verifies it, and records the
// exact metrics against the original's cycles.
func checkImages(progs []program, ks []key, imgs []*image.Image, v *verdicts) {
	orig := originalCycles(progs, v)
	res := make([]vm.Result, len(ks))
	for i, r := range runChecks(len(ks), func(i int) (string, error) {
		p := progs[ks[i].prog]
		var err error
		res[i], err = checked(p.w, imgs[i])
		return p.String() + "/" + ks[i].target + " recompiled", err
	}) {
		v.note(r.what, r.err)
		if r.err == nil && orig[ks[i].prog] > 0 {
			v.exact(imgs[i], res[i].Cycles, orig[ks[i].prog])
		}
	}
}

// bench is one workload. setup builds its inputs (it runs several times;
// each call replaces the previous state), phase runs one measured phase of
// amount units of work, and check verifies every output the phases made.
type bench interface {
	setup() error
	phase(ph *phase, amount int) error
	check() *verdicts
	close()
}

// phase is one measured stretch of jobs.
type phase struct {
	traced bool
	// shared, when set, is the one tracer every job of the phase records
	// into (the fleet daemon's); otherwise each traced job gets its own.
	shared *obs.Tracer
	// st is the workload's timing store decorator, when it has one.
	st *timedStore
	// clock calibrates the host's speed during an untraced phase (nil when
	// traced).
	clock *hostClock

	mu        sync.Mutex
	lat       []time.Duration // every job's wall time
	timed     []timedJob      // every job's identity and timed interval
	rounds    []roundStat
	failed    int
	errs      []string
	wallSum   time.Duration            // summed job wall time
	callSum   time.Duration            // summed time inside layer calls
	layer     map[string]time.Duration // traced: self time per layer metric
	count     map[string]float64       // traced: raw counters
	values    map[string]float64       // metrics and notes a workload sets directly
	events    []obs.Event              // traced: merged per-job trace events
	t0        time.Time
	sink      *vm.CounterSink
	clientTID []int64
}

// span is a measured interval.
type span struct{ start, end time.Time }

// timedJob is one job's identity and the interval its timed part took.
type timedJob struct {
	id int
	span
}

// roundStat is one round's interval, job count, allocation, and the live
// heap once it ended.
type roundStat struct {
	span
	jobs   int
	alloc  uint64
	heapMB float64
}

func newPhase(traced bool, clock *hostClock) *phase {
	ph := &phase{traced: traced, clock: clock, t0: time.Now(), values: map[string]float64{}}
	if traced {
		ph.layer = map[string]time.Duration{}
		ph.count = map[string]float64{}
	}
	return ph
}

// round runs one closed-loop client per queue, all at once: each client runs
// the jobs its queue names in order, starting the next only when the
// previous one has returned. Jobs with one identity, in any round of a run,
// are runs of the same work, and a job's latency is the median of its runs.
// Untraced, the host is calibrated between jobs.
func (ph *phase) round(queues [][]int, fn func(j *job, id int) error) {
	if ph.traced {
		if ph.sink == nil {
			ph.sink = vm.NewCounterSink()
		}
		vm.CounterSinkDefault = ph.sink
		defer func() { vm.CounterSinkDefault = nil }()
	}
	n := 0
	for _, q := range queues {
		n += len(q)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0 := ms.TotalAlloc
	t0 := time.Now()
	pool.Run(len(queues), len(queues), func(_, c int) error {
		for _, id := range queues[c] {
			ph.clock.between(func() {
				j := ph.newJob(c)
				err := fn(j, id)
				ph.finish(j, id, err)
			})
		}
		return nil
	})
	t1 := time.Now()
	runtime.ReadMemStats(&ms)
	ph.rounds = append(ph.rounds, roundStat{span: span{t0, t1}, jobs: n,
		alloc: ms.TotalAlloc - a0, heapMB: liveHeapMB()})
}

func (ph *phase) jobs() int {
	n := 0
	for _, r := range ph.rounds {
		n += r.jobs
	}
	return n
}

// job is one job's timing and, when traced, its layer accounting.
type job struct {
	ph         *phase
	tr         *obs.Tracer
	tid        int64
	trStart    time.Time
	start, end time.Time
	inCalls    time.Duration
	layer      map[string]time.Duration
	count      map[string]float64
	images     []*image.Image // recompiled images, for the code counters
}

func (ph *phase) newJob(client int) *job {
	j := &job{ph: ph}
	if ph.traced {
		j.layer = map[string]time.Duration{}
		j.count = map[string]float64{}
		if ph.shared != nil {
			j.tr, j.tid = ph.shared, ph.clientTID[client]
		} else {
			j.tr, j.trStart = obs.New(), time.Now()
		}
	}
	j.start = time.Now()
	return j
}

// done ends the job's timed part; bookkeeping after it is not measured.
func (j *job) done() {
	if j.end.IsZero() {
		j.end = time.Now()
	}
}

func (ph *phase) finish(j *job, id int, err error) {
	j.done()
	wall := j.end.Sub(j.start)
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.lat = append(ph.lat, wall)
	ph.timed = append(ph.timed, timedJob{id, span{j.start, j.end}})
	if err != nil {
		ph.failed++
		ph.errs = append(ph.errs, err.Error())
	}
	if !ph.traced {
		return
	}
	for _, img := range j.images {
		insts, fences := codeStats(img)
		j.add("lower.code_insts", float64(insts))
		j.add("lower.fences", float64(fences))
		j.add("lower.images", 1)
	}
	ph.wallSum += wall
	ph.callSum += j.inCalls
	for k, d := range j.layer {
		ph.layer[k] += d
	}
	for k, v := range j.count {
		ph.count[k] += v
	}
	if ph.shared == nil {
		ph.mergeEvents(j)
	}
}

// mergeEvents appends a per-job tracer's events to the phase trace, shifted
// to the phase clock. Jobs of one client run one at a time, so each client's
// jobs share one set of tracks.
func (ph *phase) mergeEvents(j *job) {
	shift := j.trStart.Sub(ph.t0).Microseconds()
	for _, ev := range j.tr.Events() {
		if ev.Ph == obs.PhaseMetadata {
			continue
		}
		ev.TS += shift
		ph.events = append(ph.events, ev)
	}
}

// Layer metric names: the self-time share of each layer in job wall time.
const (
	lCC        = "cc.self_frac"
	lDisasm    = "disasm.self_frac"
	lCFG       = "cfg.self_frac"
	lTracer    = "tracer.self_frac"
	lLifter    = "lifter.self_frac"
	lOpt       = "opt.self_frac"
	lCore      = "core.self_frac"
	lLower     = "lower.self_frac"
	lSpindet   = "spindet.self_frac"
	lVMRun     = "vm.run_frac"
	lVMPrune   = "vm.prune_frac"
	lStore     = "store.self_frac"
	lServe     = "serve.self_frac"
	lOverhead  = "serve.overhead_frac"
	unattrFrac = "bench.unattributed_frac"
)

// partition lists the layer metrics that, with bench.unattributed_frac, sum
// to one.
var partition = []string{lCC, lDisasm, lCFG, lTracer, lLifter, lOpt, lCore,
	lLower, lSpindet, lVMRun, lVMPrune, lStore, lServe, lOverhead}

// call runs fn as one public call into a layer. In a traced phase it records
// a span and charges the call's duration to the layer; callers then move the
// parts they measured inside the call to the layers that did them.
func (j *job) call(name, layer string, fn func() error) (time.Duration, error) {
	if j.layer == nil {
		return 0, fn()
	}
	t0 := time.Now()
	sp := j.tr.Begin(j.tid, "bench", name)
	err := fn()
	sp.End()
	d := time.Since(t0)
	j.inCalls += d
	j.layer[layer] += d
	return d, err
}

// split moves the measured inner parts of a call of duration d from the
// call's layer to theirs (scaled down if clock granularity makes them
// overshoot the call).
func (j *job) split(d time.Duration, from string, parts map[string]time.Duration) {
	if j.layer == nil {
		return
	}
	var sum time.Duration
	for _, p := range parts {
		if p > 0 {
			sum += p
		}
	}
	scale := 1.0
	if sum > d && sum > 0 {
		scale = float64(d) / float64(sum)
	}
	for to, p := range parts {
		if p <= 0 {
			continue
		}
		m := time.Duration(float64(p) * scale)
		j.layer[from] -= m
		j.layer[to] += m
	}
}

func (j *job) add(counter string, v float64) {
	if j.count != nil {
		j.count[counter] += v
	}
}

func (j *job) storeNanos() time.Duration {
	if j.ph.st == nil {
		return 0
	}
	return j.ph.st.nanos()
}

// statsSnap is the part of core.Stats the layer accounting reads.
type statsSnap struct {
	lift, opt, wall, lower time.Duration
	traceInsts             uint64
}

func snap(p *core.Project) statsSnap {
	return statsSnap{lift: p.Stats.LiftTime, opt: p.Stats.OptTime, wall: p.Stats.LiftOptWall,
		lower: p.Stats.LowerTime, traceInsts: p.Stats.TraceInsts}
}

// The calls below wrap each public entry point a workload uses.

func (j *job) compile(w *workloads.Workload, level int) (*image.Image, error) {
	var img *image.Image
	_, err := j.call("Workload.Compile", lCC, func() (err error) {
		img, err = w.Compile(level)
		return err
	})
	return img, err
}

func (j *job) newProject(img *image.Image, o core.Options) (*core.Project, error) {
	o.Obs = j.tr
	var p *core.Project
	s0 := j.storeNanos()
	d, err := j.call("core.NewProject", lDisasm, func() (err error) {
		p, err = core.NewProject(img, o)
		return err
	})
	j.split(d, lDisasm, map[string]time.Duration{lStore: j.storeNanos() - s0})
	return p, err
}

// The analyses below run on the workload's primary input, built inside the
// call so that preparing it counts toward the layer, not against coverage.

func (j *job) trace(p *core.Project, w *workloads.Workload) error {
	s0, st0 := snap(p), j.storeNanos()
	d, err := j.call("Project.Trace", lTracer, func() error {
		_, err := p.Trace([]core.Input{w.Input()})
		return err
	})
	j.split(d, lTracer, map[string]time.Duration{lStore: j.storeNanos() - st0})
	j.add("tracer.guest_insts", float64(p.Stats.TraceInsts-s0.traceInsts))
	return err
}

func (j *job) prune(p *core.Project, w *workloads.Workload) error {
	_, err := j.call("Project.PruneCallbacks", lVMPrune, func() error {
		return p.PruneCallbacks([]core.Input{w.Input()})
	})
	return err
}

// fenceOptimize runs spinloop detection. Its two lifts show in core.Stats;
// its optimization run shows as the opt-module span the pipeline records;
// the rest (instrumentation, the instrumented run, the analysis) is spindet.
func (j *job) fenceOptimize(p *core.Project, w *workloads.Workload) (*spindet.Report, error) {
	n0 := len(j.tr.Events())
	s0 := snap(p)
	var rep *spindet.Report
	d, err := j.call("Project.FenceOptimize", lSpindet, func() (err error) {
		rep, err = p.FenceOptimize([]core.Input{w.Input()})
		return err
	})
	if j.layer != nil {
		var optD time.Duration
		for _, ev := range j.tr.Events()[n0:] {
			if ev.Cat == "opt" && ev.Name == "opt-module" {
				optD += time.Duration(ev.Dur) * time.Microsecond
			}
		}
		j.split(d, lSpindet, map[string]time.Duration{lLifter: p.Stats.LiftTime - s0.lift, lOpt: optD})
	}
	if rep != nil {
		j.add("spindet.runs", 1)
		if rep.FencesRemovable {
			j.add("spindet.removable", 1)
		}
	}
	return rep, err
}

// recompile runs lift, optimize and lower. core.Stats gives the lowering
// time and the lift+optimize wall time, which is split between lifter and
// opt in proportion to their CPU time; store time comes from the decorator.
func (j *job) recompile(p *core.Project) (*image.Image, error) {
	s0, st0 := snap(p), j.storeNanos()
	var img *image.Image
	d, err := j.call("Project.Recompile", lCore, func() (err error) {
		img, err = p.Recompile()
		return err
	})
	if j.layer != nil {
		s1 := snap(p)
		lift, opt, wall := s1.lift-s0.lift, s1.opt-s0.opt, s1.wall-s0.wall
		liftW := time.Duration(0)
		if lift+opt > 0 {
			liftW = time.Duration(float64(wall) * float64(lift) / float64(lift+opt))
		}
		j.split(d, lCore, map[string]time.Duration{
			lLower: s1.lower - s0.lower, lLifter: liftW, lOpt: wall - liftW,
			lStore: j.storeNanos() - st0,
		})
		j.add("core.liftopt_cpu", float64(lift+opt))
		j.add("core.liftopt_wall", float64(wall))
	}
	if img != nil && j.count != nil {
		j.images = append(j.images, img) // counted in finish, outside the timing
	}
	return img, err
}

// run executes img with w's primary input; kind names the image for the
// per-kind guest speed ("orig", "mx64", "mx64w").
func (j *job) run(w *workloads.Workload, img *image.Image, kind string) (vm.Result, error) {
	var res vm.Result
	d, err := j.call("Workload.Run", lVMRun, func() (err error) {
		res, err = checked(w, img)
		return err
	})
	j.add("vm.insts."+kind, float64(res.Insts))
	j.add("vm.ns."+kind, float64(d))
	return res, err
}

// peakRSSMB reports the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveHeapMB collects garbage and returns the live heap in MiB: what the
// workload holds between jobs.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
