// Package core is the Polynima driver: it assembles the full hybrid
// recompilation pipeline (Figure 2) around the substrate packages.
//
//	disassemble (static CFG) -> [ICFT trace] -> lift -> [dynamic analyses]
//	  -> optimize -> lower -> standalone recompiled binary
//
// plus the additive-lifting loop (§3.2): run the recompiled output natively;
// when it reports a control-flow miss, integrate the newly discovered target
// into the on-disk CFG with a static recursive descent and re-run the
// pipeline.
//
// The optional dynamic analyses are callback-wrapper pruning (§3.3.3) and
// spinloop detection driving fence removal (§3.4); both consume concrete
// inputs and leave the output a fully functional replacement binary whether
// or not they run.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cfg"
	"repro/internal/disasm"
	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/lifter"
	"repro/internal/lower"
	"repro/internal/obs"
	"repro/internal/spindet"
	"repro/internal/store"
	"repro/internal/tracer"
	"repro/internal/vm"
)

// Options configures a recompilation project.
type Options struct {
	// NaiveAtomics selects the Listing 1 global-lock atomic translation.
	NaiveAtomics bool
	// VerifyIR re-verifies the IR after every pass (slow; tests).
	VerifyIR bool
	// Target names the ISA description lowering emits for ("" or "mx64"
	// is the default TSO MX64 backend; "mx64w" the weakly-ordered,
	// register-poor profile — see mx.TargetByName). The target id is
	// folded into per-function cache fingerprints and image artifact
	// keys, so a warm store never serves one target's bytes to another.
	Target string
	// Fuel bounds every VM execution (instructions).
	Fuel uint64
	// Seed drives VM scheduling for pipeline-internal runs.
	Seed int64
	// Workers bounds how many functions are lifted/optimized concurrently
	// per Recompile (0 = runtime.NumCPU(); 1 = the historical serial
	// path). Output bytes are identical at any setting (pipeline.go).
	Workers int
	// NoFuncCache disables the artifact store entirely — every stage of
	// every recompile runs from scratch (the differential-testing escape
	// hatch and the benchmark baseline). The name predates the staged
	// store; it now gates CFG, trace, function, and image artifacts alike.
	NoFuncCache bool
	// Store, when set, is a backing artifact tier (typically store.Disk or
	// store.Remote, the -store/-remote-store flags) composed under this
	// project's private memory tier. Artifacts written there survive the
	// process and may be shared between projects — keys are content
	// addresses over each stage's full input set, so sharing can never
	// alias (stages.go).
	Store store.Store
	// SharedStore, when set, is used directly as the project's artifact
	// store instead of wrapping a private memory tier over Store — the
	// fleet-daemon shape (internal/serve): one store.NewTiered warm across
	// every request, whose memory entries live as long as the daemon. A
	// project over it builds its graph in NewProject. Takes precedence over
	// Store; ignored when NoFuncCache is set.
	SharedStore *store.Tiered
	// Obs, when set, records a structured span for every pipeline stage
	// (disasm, ICFT trace, per-function lift+opt, site finalize, lower) and
	// every guest run, for Chrome-trace export. Nil — the default — costs
	// one predictable nil check per stage.
	Obs *obs.Tracer
	// Ctx, when set, makes the project's work cancellable: once the context
	// is done, the per-function worker pool stops dispatching, guest runs
	// (pipeline-internal and additive) stop within a bounded number of
	// instructions, and the interrupted call surfaces an error wrapping
	// ctx.Err(). The fleet daemon (internal/serve) threads each request's
	// context here so a disconnected or timed-out client frees its workers.
	// Nil — the default — is never cancelled and costs nil checks only.
	Ctx context.Context
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{Fuel: 2_000_000_000, Seed: 1}
}

// Input is one concrete execution used by the dynamic analyses.
type Input struct {
	Data []byte
	Seed int64
	Exts map[string]vm.ExtFunc
}

// Stats records pipeline timing and counters (Table 4's metrics).
//
// The pipeline methods accumulate into it under mu (via update), so even a
// Project shared across goroutines keeps consistent counters. Reading the
// fields directly is safe once the pipeline calls have returned — the bench
// worker pool collects cells behind a WaitGroup, which establishes the
// required happens-before. Note Stats must not be copied (go vet's
// copylocks check enforces this); take the individual fields instead.
type Stats struct {
	mu sync.Mutex

	DisasmTime time.Duration
	TraceTime  time.Duration
	LiftTime   time.Duration // summed per-function lift CPU time
	OptTime    time.Duration // summed per-function optimization CPU time
	LowerTime  time.Duration
	// LiftOptWall is the wall-clock time of the (parallel) lift+optimize
	// sections; with several workers it is well below LiftTime+OptTime.
	LiftOptWall time.Duration
	// CacheHits/CacheMisses count function-cache outcomes across this
	// project's recompiles (a hit replays a cached optimized body; a miss
	// lifts and optimizes the function from scratch).
	CacheHits   int
	CacheMisses int
	// Per-tier artifact-store outcomes across every namespace (functions,
	// CFGs, trace sessions, lowered images). A memory miss that a disk
	// tier serves counts as StoreMemMisses + StoreDiskHits; disk counters
	// stay zero when no backing store is configured.
	StoreMemHits    int
	StoreMemMisses  int
	StoreDiskHits   int
	StoreDiskMisses int
	ICFTs           int
	Recompiles      int
	Funcs           int
	Blocks          int
	CodeSize        int
	TraceInsts      uint64
	FencesGone      bool
	NumExternal     int
	// Fences is the number of fence instructions the last Recompile's
	// lowering emitted (zero on TSO-like targets, where fences are free).
	Fences int
}

// update runs f with the stats lock held; every pipeline-side mutation goes
// through here.
func (s *Stats) update(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f()
}

// Total returns the total pipeline wall-clock time. LiftTime and OptTime sum
// per-function CPU time across workers, so whenever the parallel lift+opt
// sections recorded a wall clock (LiftOptWall), that is what counts toward
// the total — summing CPU time alongside the serial stages would overstate
// the pipeline by nearly the worker count.
func (s *Stats) Total() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	liftOpt := s.LiftTime + s.OptTime
	if s.LiftOptWall > 0 {
		liftOpt = s.LiftOptWall
	}
	return s.DisasmTime + s.TraceTime + liftOpt + s.LowerTime
}

// Project is one recompilation effort over an input binary.
type Project struct {
	Img *image.Image
	// Graph is the project's CFG, or nil until it materializes: over a
	// private artifact store, NewProject only names the graph, and the
	// first stage that needs it builds it (CFG). Read it through CFG.
	// Callers must not mutate it: merges go through Trace and RunAdditive,
	// which keep the derivation key that names it in the artifact store
	// current (stages.go).
	Graph *cfg.Graph
	Opts  Options
	Stats Stats

	// OnCFGUpdate, when set, is invoked by RunAdditive after each batch of
	// control-flow misses is integrated into Graph and before the recompile
	// that consumes it — the crash-safe persistence hook: a caller that
	// writes the graph out here (atomically) never loses a discovery to a
	// crash mid-recompile. Returning an error aborts the session.
	OnCFGUpdate func(*cfg.Graph) error

	// dynamic-analysis state
	removeFences bool
	callbackSet  map[uint64]bool // observed external entries; nil = not pruned
	// traced and tracedRuns are the result and runsKey of the last trace
	// session that completed without error, live or replayed; its guest
	// entries serve PruneCallbacks over the same runs.
	traced     *tracer.Result
	tracedRuns store.Key
	// callbackSrc is the session result whose entries callbackSet was
	// taken from; nil when PruneCallbacks ran its own runs.
	callbackSrc *tracer.Result
	// pending are the trace sessions replayed before the graph
	// materialized, in call order: their pairs are folded into graphKey
	// but not yet merged into the graph (applyPending).
	pending []pendingTrace

	// store is the project's tiered artifact store (stages.go): a private
	// memory tier over the optional shared Opts.Store backing.
	// Nil when Opts.NoFuncCache is set — every stage then recomputes.
	store *store.Tiered

	// imgFP caches the input-image fingerprint, the root of every artifact
	// key (computed once, and only with the store on).
	imgFPOnce sync.Once
	imgFP     store.Key

	// graphKey is Graph's derivation key (stages.go), valid while
	// graphKeyOK. It is set only when imageFP yields a key, and a trace
	// session that fails clears graphKeyOK for good.
	graphKey   store.Key
	graphKeyOK bool

	// obsTrack is this project's serial-stage trace track, allocated on
	// first use (concurrent bench cells each hold their own Project, so
	// per-project tracks keep complete events from overlapping).
	obsOnce  sync.Once
	obsTrack int64
}

// obsTID returns the project's serial-stage trace track, or 0 when tracing
// is off.
func (p *Project) obsTID() int64 {
	if p.Opts.Obs == nil {
		return 0
	}
	p.obsOnce.Do(func() {
		p.obsTrack = p.Opts.Obs.AllocTID("pipeline " + p.Img.Name)
	})
	return p.obsTrack
}

// ctxDone returns the project's cancellation channel (nil — never polled —
// when no request context is attached).
func (p *Project) ctxDone() <-chan struct{} {
	if p.Opts.Ctx == nil {
		return nil
	}
	return p.Opts.Ctx.Done()
}

// ctxErr surfaces the project's cancellation state (nil when no context is
// attached or it is still live).
func (p *Project) ctxErr() error {
	if p.Opts.Ctx == nil {
		return nil
	}
	return p.Opts.Ctx.Err()
}

// cancelErr maps a guest-run fault to the project's cancellation error
// when the fault was forced by the request context; nil otherwise.
func (p *Project) cancelErr(f *vm.Fault, what string) error {
	if f == nil || !f.Cancelled {
		return nil
	}
	cerr := p.ctxErr()
	if cerr == nil {
		cerr = context.Canceled
	}
	return fmt.Errorf("core: %s cancelled: %w", what, cerr)
}

// CachedFuncs reports how many function bodies the memory tier of the
// artifact store currently holds (tests, diagnostics).
func (p *Project) CachedFuncs() int {
	if p.store == nil {
		return 0
	}
	return p.store.Mem().Len(nsFunc)
}

// NewProject prepares a project over the binary. Disassembly is the first
// pipeline stage: its artifact, the static CFG, is a pure function of the
// image bytes. Over a private store NewProject only names the graph by its
// cfg key, which needs nothing but the input fingerprint, and the graph
// materializes when a stage first needs it (CFG). With the store off, and
// over a daemon's store (Options.SharedStore), NewProject builds the graph
// itself: a daemon reports a full repeat as three memory hits (CFG, trace,
// image), and the fleet benchmark checks that count. Either way an image
// without a .text section, the one input disassembly rejects, fails here.
func NewProject(img *image.Image, opts Options) (*Project, error) {
	p := newProjectShell(img, opts)
	p.graphKey, p.graphKeyOK = p.cfgKey()
	if !p.graphKeyOK || opts.SharedStore != nil {
		if _, err := p.materialize(); err != nil {
			return nil, err
		}
		return p, nil
	}
	if img.Text() == nil {
		return nil, disasm.ErrNoText
	}
	return p, nil
}

// CFG returns the project's graph, materializing it on first use. A live
// trace, a module build and an additive merge need the graph; a replayed
// trace session or image does not.
func (p *Project) CFG() (*cfg.Graph, error) {
	if _, err := p.materialize(); err != nil {
		return nil, err
	}
	return p.Graph, nil
}

// materialize builds Graph unless it is built: it replays the cfg artifact,
// or disassembles the image and stores the artifact, records the
// pipeline/disasm span, and then merges the pending trace sessions
// (applyPending). It returns the time it took, which it accounts itself:
// the load as DisasmTime, the merges as TraceTime.
func (p *Project) materialize() (time.Duration, error) {
	if p.Graph != nil {
		return 0, nil
	}
	t0 := time.Now()
	sp := p.Opts.Obs.Begin(p.obsTID(), "pipeline", "disasm")
	key, keyOK := p.cfgKey()
	var g *cfg.Graph
	fromTier := ""
	if keyOK {
		g, fromTier = p.replayCFG(key)
	}
	if g == nil {
		var err error
		g, err = disasm.Disassemble(p.Img)
		if err != nil {
			sp.End()
			return time.Since(t0), err
		}
		if keyOK {
			p.storePut(nsCFG, key, g.EncodeBinary())
		}
	}
	d := time.Since(t0)
	sp = sp.Arg("funcs", len(g.Funcs)).Arg("blocks", g.NumBlocks())
	if fromTier != "" {
		sp = sp.Arg("tier", fromTier)
	}
	sp.End()
	p.Graph = g
	p.Stats.update(func() {
		p.Stats.DisasmTime = d
		p.Stats.Funcs = len(g.Funcs)
		p.Stats.Blocks = g.NumBlocks()
	})
	err := p.applyPending(key)
	return time.Since(t0), err
}

// NewProjectWithGraph prepares a project over an externally supplied CFG
// (e.g. one persisted by a previous additive session) instead of
// disassembling the image. The project owns g from here on.
func NewProjectWithGraph(img *image.Image, g *cfg.Graph, opts Options) *Project {
	p := newProjectShell(img, opts)
	p.Graph = g
	if _, ok := p.imageFP(); ok {
		p.graphKey, p.graphKeyOK = contentKey(g), true
	}
	p.Stats.update(func() {
		p.Stats.Funcs = len(g.Funcs)
		p.Stats.Blocks = g.NumBlocks()
	})
	return p
}

// newProjectShell builds the project and its tiered artifact store: the
// caller-supplied shared store when one is set (daemon mode), otherwise a
// private memory tier over the optional backing store.
func newProjectShell(img *image.Image, opts Options) *Project {
	p := &Project{Img: img, Opts: opts}
	switch {
	case opts.NoFuncCache:
	case opts.SharedStore != nil:
		p.store = opts.SharedStore
	default:
		p.store = store.NewTiered(store.NewMemory(), opts.Store)
	}
	return p
}

// replayCFG probes the store for the image's static CFG under its cfg key;
// (nil, "") on miss or any decode failure.
func (p *Project) replayCFG(key store.Key) (*cfg.Graph, string) {
	data, tier, ok := p.storeGet(nsCFG, key)
	if !ok {
		return nil, ""
	}
	g, err := cfg.DecodeBinary(data)
	if err != nil {
		return nil, ""
	}
	return g, tier
}

// tracerRuns maps the analysis inputs to the original binary's runs; no
// inputs means one run at the project seed.
func (p *Project) tracerRuns(inputs []Input) []tracer.Run {
	runs := make([]tracer.Run, len(inputs))
	for i, in := range inputs {
		runs[i] = tracer.Run{Input: in.Data, Seed: in.Seed, Exts: in.Exts}
	}
	if len(runs) == 0 {
		runs = []tracer.Run{{Seed: p.Opts.Seed}}
	}
	return runs
}

// Trace augments the CFG with dynamically observed indirect targets (§3.2
// "Dynamic": the ICFT tracer, run upfront over concrete inputs).
//
// A trace session is a pipeline stage with a replayable artifact: its whole
// effect on the graph is the ordered list of merged (site, target) pairs,
// and its key covers the image, the pre-trace graph's derivation key and
// the runs' identity (runsKey). On a store hit the pairs are re-applied to
// the graph — same merge, no execution — and the stored counts and guest
// entries are reported, so a replayed session is indistinguishable from a
// live one. Before the graph materializes, a hit only folds the pairs into
// the derivation key and leaves the session pending until it does
// (applyPending). Only sessions that completed without error are
// persisted, fold their pairs into the derivation key, and leave their
// guest entries for PruneCallbacks; a failed one turns graph-derived keys
// off (stages.go).
func (p *Project) Trace(inputs []Input) (*tracer.Result, error) {
	runs := p.tracerRuns(inputs)
	runsKey := p.runsKey(runs)
	sp := p.Opts.Obs.Begin(p.obsTID(), "pipeline", "icft-trace",
		obs.Arg{Key: "runs", Val: len(runs)})
	t0 := time.Now()
	// The key names the graph the session starts from, so it must be
	// computed before any merging mutates it.
	key, keyOK := p.traceKey(runsKey)
	stored, replayed := p.replayTrace(key, keyOK)
	var res *tracer.Result
	var err error
	var graphTime time.Duration // materializing the graph, accounted there
	if stored != nil && p.Graph == nil {
		p.pending = append(p.pending, pendingTrace{runs: runs, runsKey: runsKey, key: key, res: stored})
		p.foldGraphKey(stored.Merged)
		res = stored
	} else {
		if p.Graph == nil {
			graphTime, err = p.materialize()
			// A pending session that fell back re-keyed the graph: probe
			// where a project that materialized first would.
			if k, ok := p.traceKey(runsKey); err == nil && (k != key || ok != keyOK) {
				key, keyOK = k, ok
				stored, replayed = p.replayTrace(key, keyOK)
			}
		}
		if err == nil {
			res, err = p.runSession(runs, key, keyOK, stored)
		}
		if res != stored {
			replayed = ""
		}
	}
	d := time.Since(t0) - graphTime
	if res != nil {
		sp.Arg("icfts", res.ICFTs).Arg("new_targets", res.NewTargets)
	}
	if replayed != "" {
		sp.Arg("tier", replayed)
	}
	sp.End()
	p.Stats.update(func() {
		p.Stats.TraceTime += d
		if res != nil {
			// A faulted session still merged the ICFTs it observed before
			// (and during) the faulting run; account for them.
			p.Stats.ICFTs += res.ICFTs
			p.Stats.TraceInsts += res.Insts
		}
	})
	if err != nil {
		return nil, err
	}
	p.traced, p.tracedRuns = res, runsKey
	return res, nil
}

// pendingTrace is a trace session replayed before the graph materialized:
// its runs, the trace key it was replayed under, and the stored result.
type pendingTrace struct {
	runs    []tracer.Run
	runsKey store.Key
	key     store.Key
	res     *tracer.Result
}

// replayTrace probes the store for a trace session under key; nil on a
// miss, without a key, or when the payload does not decode.
func (p *Project) replayTrace(key store.Key, keyOK bool) (*tracer.Result, string) {
	if !keyOK {
		return nil, ""
	}
	data, tier, ok := p.storeGet(nsTrace, key)
	if !ok {
		return nil, ""
	}
	res, ok := decodeTraceArtifact(data)
	if !ok {
		return nil, ""
	}
	return res, tier
}

// runSession merges a stored session's pairs into the graph, or runs the
// session live when there is none or one of its pairs no longer applies
// (the live run re-merges idempotently) and stores it under key. A live
// session that fails may have merged pairs its result does not list, so
// graph-derived keys turn off.
func (p *Project) runSession(runs []tracer.Run, key store.Key, keyOK bool, stored *tracer.Result) (*tracer.Result, error) {
	if stored != nil && p.mergePairs(stored.Merged) == nil {
		return stored, nil
	}
	res, err := tracer.TraceObs(p.Img, p.Graph, runs, p.Opts.Fuel, p.Opts.Obs, p.obsTID(), p.ctxDone())
	if err != nil {
		p.graphKeyOK = false
		if cerr := p.ctxErr(); cerr != nil {
			err = fmt.Errorf("core: trace cancelled: %w", cerr)
		}
		return res, err
	}
	if keyOK {
		p.storePut(nsTrace, key, encodeTraceArtifact(res))
	}
	p.foldGraphKey(res.Merged)
	return res, nil
}

// applyPending merges the pending sessions into the just-loaded graph in
// call order, as Trace would have with the graph there: the derivation key
// rewinds to base, the cfg key, and each session folds again as it merges.
// A session still under the trace key it was replayed under merges its
// stored pairs; one re-keyed by an earlier session's fallback probes the
// store again. A session whose pairs do not apply runs live on its runs,
// as in Trace. Its result then replaces the stored one as the project's
// last session and as the source of a callback set PruneCallbacks took from
// it, and its counts are added to Stats; what Trace returned stays the
// stored result. A live run that fails ends the merging with its error.
func (p *Project) applyPending(base store.Key) error {
	pending := p.pending
	if len(pending) == 0 {
		return nil
	}
	p.pending = nil
	p.graphKey = base
	for _, s := range pending {
		t0 := time.Now()
		key, keyOK := p.traceKey(s.runsKey)
		stored := s.res
		if !keyOK || key != s.key {
			stored, _ = p.replayTrace(key, keyOK)
		}
		res, err := p.runSession(s.runs, key, keyOK, stored)
		d := time.Since(t0)
		p.Stats.update(func() {
			p.Stats.TraceTime += d
			if res != nil && res != stored {
				p.Stats.ICFTs += res.ICFTs
				p.Stats.TraceInsts += res.Insts
			}
		})
		if err != nil {
			return err
		}
		if res == s.res {
			continue
		}
		if p.traced == s.res {
			p.traced = res
		}
		if p.callbackSrc == s.res {
			p.callbackSet, p.callbackSrc = callbackSetOf(res.Entries), res
		}
	}
	return nil
}

// mergePairs merges (site, target) pairs into the graph in order — the step
// a replayed trace session and an additive miss batch share with the live
// tracer (order matters: recursive descent from a discovery point depends
// on what is already known) — and folds them into the derivation key. On
// error the pairs before the failing one stay merged, and the failing one
// may be half integrated, so the key restarts from the graph's content.
func (p *Project) mergePairs(pairs []tracer.SiteTarget) error {
	for _, st := range pairs {
		blk := p.Graph.BlockContaining(st.Site)
		if blk == nil {
			p.restartGraphKey()
			return fmt.Errorf("miss site %#x not in CFG", st.Site)
		}
		if _, err := disasm.AddIndirectTarget(p.Img, p.Graph, blk, st.Target); err != nil {
			p.restartGraphKey()
			return fmt.Errorf("integrating miss %#x->%#x: %w", st.Site, st.Target, err)
		}
	}
	p.foldGraphKey(pairs)
	return nil
}

// AdditiveResult describes an additive-lifting session.
type AdditiveResult struct {
	Result     vm.Result
	Recompiles int // recompilation loops triggered by misses
	Misses     []Miss
	Img        *image.Image // the final recompiled binary
	// Timeline records one entry per recompiling loop iteration — the
	// convergence history of the session (how many misses each run
	// discovered and what the recompile that integrated them cost).
	Timeline []AdditiveLoopStat
}

// AdditiveLoopStat is one additive-loop iteration of the convergence
// timeline.
type AdditiveLoopStat struct {
	Loop          int     // iteration index (0-based)
	Misses        int     // distinct control-flow misses this run discovered
	Relifted      int     // functions re-lifted by the recompile (cache misses)
	CacheHits     int     // functions replayed from the cache
	CacheHitRatio float64 // CacheHits / (CacheHits + Relifted), 0 with no cache
}

// Miss is one recorded control-flow miss.
type Miss struct {
	Site, Target uint64
}

// RunAdditive executes the recompiled binary on the input; when the run
// reports control-flow misses it batches every distinct miss the run
// observed (multithreaded programs can hit several unresolved targets before
// the VM halts), integrates them all into the CFG (recursive descent from
// each new block, §3.2), re-runs the recompilation pipeline once, and
// restarts the program — the incremental additive-lifting loop. Each
// recompile replays unchanged functions from the content-addressed cache, so
// a loop iteration pays only for the functions its discoveries touched.
func (p *Project) RunAdditive(in Input, maxLoops int) (*AdditiveResult, error) {
	if maxLoops <= 0 {
		maxLoops = 64
	}
	out := &AdditiveResult{}
	img, err := p.Recompile()
	if err != nil {
		return nil, err
	}
	for loop := 0; ; loop++ {
		lsp := p.Opts.Obs.Begin(p.obsTID(), "additive", "additive-loop",
			obs.Arg{Key: "loop", Val: loop})
		m, err := vm.NewWithExts(img, in.Seed, in.Exts)
		if err != nil {
			lsp.End()
			return nil, err
		}
		m.SetCancel(p.ctxDone())
		if in.Data != nil {
			m.SetInput(in.Data)
		}
		// Collect every distinct miss the run reports, not just the last:
		// each one is a real unresolved target and integrating them together
		// saves a full loop iteration per extra miss.
		var misses []Miss
		seen := map[Miss]bool{}
		m.MissHook = func(t *vm.Thread, site, target uint64) {
			ms := Miss{Site: site, Target: target}
			if !seen[ms] {
				seen[ms] = true
				misses = append(misses, ms)
			}
		}
		gsp := p.Opts.Obs.Begin(p.obsTID(), "guest", "guest-run",
			obs.Arg{Key: "loop", Val: loop})
		res := m.Run(p.Opts.Fuel)
		gsp.Arg("insts", res.Insts).Arg("misses", len(misses)).End()
		if res.Fault != nil {
			lsp.End()
			if cerr := p.cancelErr(res.Fault, "additive run"); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("core: additive run faulted at loop %d (after %d recompiles, misses integrated so far %s): %w",
				loop, out.Recompiles, formatMisses(out.Misses), res.Fault)
		}
		if res.ExitCode != vm.MissExitCode || len(misses) == 0 {
			lsp.Arg("converged", true).End()
			out.Result = res
			out.Img = img
			return out, nil
		}
		if loop >= maxLoops {
			lsp.End()
			return nil, fmt.Errorf("core: additive lifting did not converge after %d loops (%d recompiles; misses integrated %s; still missing %s)",
				maxLoops, out.Recompiles, formatMisses(out.Misses), formatMisses(misses))
		}
		// Integrate the whole batch, then recompile once.
		pairs := make([]tracer.SiteTarget, len(misses))
		for i, ms := range misses {
			pairs[i] = tracer.SiteTarget(ms)
		}
		if _, err := p.CFG(); err != nil {
			lsp.End()
			return nil, fmt.Errorf("core: loop %d: %w", loop, err)
		}
		if err := p.mergePairs(pairs); err != nil {
			lsp.End()
			return nil, fmt.Errorf("core: loop %d: %w", loop, err)
		}
		out.Misses = append(out.Misses, misses...)
		if p.OnCFGUpdate != nil {
			if err := p.OnCFGUpdate(p.Graph); err != nil {
				lsp.End()
				return nil, fmt.Errorf("core: loop %d: persisting updated CFG: %w", loop, err)
			}
		}
		// Snapshot the cache counters around the recompile so the timeline
		// entry carries this iteration's delta. The pipeline calls have
		// returned at both read points, so the direct field reads are safe.
		h0, m0 := p.Stats.CacheHits, p.Stats.CacheMisses
		img, err = p.Recompile()
		if err != nil {
			lsp.End()
			return nil, fmt.Errorf("core: loop %d: recompile after integrating %s: %w",
				loop, formatMisses(misses), err)
		}
		out.Recompiles++
		hits, relifted := p.Stats.CacheHits-h0, p.Stats.CacheMisses-m0
		ratio := 0.0
		if hits+relifted > 0 {
			ratio = float64(hits) / float64(hits+relifted)
		}
		out.Timeline = append(out.Timeline, AdditiveLoopStat{
			Loop: loop, Misses: len(misses),
			Relifted: relifted, CacheHits: hits, CacheHitRatio: ratio,
		})
		lsp.Arg("misses", len(misses)).Arg("relifted", relifted).
			Arg("cache_hits", hits).End()
	}
}

// formatMisses renders a miss batch for error messages (capped so a
// pathological non-convergence stays readable).
func formatMisses(ms []Miss) string {
	if len(ms) == 0 {
		return "none"
	}
	const cap = 8
	s := ""
	for i, m := range ms {
		if i == cap {
			s += fmt.Sprintf(" ... (%d more)", len(ms)-cap)
			break
		}
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%#x->%#x", m.Site, m.Target)
	}
	return "[" + s + "]"
}

// PruneCallbacks runs the callback-usage analysis (§3.3.3): it observes
// which functions are used as external entry points across the inputs and
// unmarks all others, shrinking the output and unlocking optimization.
//
// The observation is the guest-entry set of the original binary's runs over
// the inputs, which the ICFT tracer's runs record as well. When the
// project's last trace session ran the same inputs (equal runsKey), live or
// replayed, its set is taken and nothing runs; otherwise the tracer's
// entries-only pass runs them. A pipeline/prune-callbacks span records how
// many guest runs this call executed and the size of the set.
func (p *Project) PruneCallbacks(inputs []Input) error {
	runs := p.tracerRuns(inputs)
	sp := p.Opts.Obs.Begin(p.obsTID(), "pipeline", "prune-callbacks")
	defer sp.End()
	res := &tracer.Result{}
	var src *tracer.Result
	var err error
	if p.traced != nil && p.tracedRuns == p.runsKey(runs) {
		res.Entries, src = p.traced.Entries, p.traced
	} else if res, err = tracer.Entries(p.Img, runs, p.Opts.Fuel, p.ctxDone()); err != nil {
		var f *vm.Fault
		if !errors.As(err, &f) {
			return err
		}
		if cerr := p.cancelErr(f, "callback analysis run"); cerr != nil {
			return cerr
		}
		return fmt.Errorf("core: callback analysis run faulted: %w", f)
	}
	sp.Arg("runs", res.Runs).Arg("entries", len(res.Entries))
	p.callbackSet, p.callbackSrc = callbackSetOf(res.Entries), src
	return nil
}

// callbackSetOf is the callback set of the observed guest entries.
func callbackSetOf(entries []uint64) map[uint64]bool {
	set := make(map[uint64]bool, len(entries))
	for _, fn := range entries {
		set[fn] = true
	}
	return set
}

// FenceOptimize runs the spinloop-detection pipeline (§3.4): build the
// optimized module, run its recompiled binary over the inputs while the VM
// records every memory access site, analyze every loop of the build, and —
// only if the whole program is proven free of implicit synchronization —
// enable fence removal for subsequent recompilations. It returns the
// analysis report.
//
// Both builds come from the builder Recompile uses (buildModule), unpruned,
// with fences kept and optimization on; there are two because lowering
// destroys the first one's phis. The recording run executes the first build
// exactly as lowered: each access with a SiteID is one tagged instruction
// (lower.Result.Sites), and the machine reports it to the recorder
// (vm.Machine.RecordAccesses). The builder is deterministic, so the sites
// the recording covers are exactly the sites Analyze looks up; with a store,
// the second build replays every body the first one stored. The binary runs
// under the configured target's machine mode, as the production recompile
// will. Each recording run records a spindet/instrumented-run span.
func (p *Project) FenceOptimize(inputs []Input) (*spindet.Report, error) {
	if err := p.ctxErr(); err != nil {
		return nil, fmt.Errorf("core: fence optimization cancelled: %w", err)
	}
	tgt := p.target()
	if tgt == nil {
		return nil, fmt.Errorf("core: unknown target %q", p.Opts.Target)
	}
	st := buildState{optimize: true}
	lf, err := p.buildModule(st)
	if err != nil {
		return nil, err
	}
	res, err := lower.LowerWithOptions(lf, lower.Options{Target: tgt})
	if err != nil {
		return nil, err
	}
	recorder := spindet.NewRecorder()
	if len(inputs) == 0 {
		inputs = []Input{{Seed: p.Opts.Seed}}
	}
	for ri, in := range inputs {
		m, err := vm.NewWithExts(res.Img, in.Seed, in.Exts)
		if err != nil {
			return nil, err
		}
		m.RecordAccesses(res.Sites, recorder.Record)
		m.SetCancel(p.ctxDone())
		if in.Data != nil {
			m.SetInput(in.Data)
		}
		sites := recorder.Recording().Observed()
		sp := p.Opts.Obs.Begin(p.obsTID(), "spindet", "instrumented-run", obs.Arg{Key: "run", Val: ri})
		r := m.Run(p.Opts.Fuel)
		sp.Arg("insts", r.Insts).Arg("sites", recorder.Recording().Observed()-sites).End()
		if r.Fault != nil {
			if cerr := p.cancelErr(r.Fault, "recording run"); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("core: recording run faulted: %w", r.Fault)
		}
	}

	if lf, err = p.buildModule(st); err != nil {
		return nil, err
	}
	report := spindet.Analyze(lf.Mod, recorder.Recording())
	if report.FencesRemovable {
		p.removeFences = true
	}
	return report, nil
}

// ForceFenceRemoval enables fence removal unconditionally (the unsound
// ablation used to quantify the fence cost).
func (p *Project) ForceFenceRemoval() { p.removeFences = true }

// LiftForDebug builds the module with the project's dynamic results applied
// but without optimization, so nothing is inlined, and returns the lifted
// handle and its module (diagnostics).
func (p *Project) LiftForDebug() (*lifter.Lifted, *ir.Module, error) {
	// The state is read after the graph materializes, which can re-derive
	// the callback set (applyPending).
	if _, err := p.CFG(); err != nil {
		return nil, nil, err
	}
	st := p.buildState()
	st.optimize = false
	lf, err := p.buildModule(st)
	if err != nil {
		return nil, nil, err
	}
	return lf, lf.Mod, nil
}
