// Parallel, cached module builder.
//
// Every module the project lowers or analyzes — Recompile's, LiftForDebug's
// and both of FenceOptimize's — comes from buildModule, which fans lifting
// and per-function optimization out over a bounded worker pool (the
// index-ordered collection pattern of internal/bench) and replays unchanged
// functions from the content-addressed function cache (cache.go). The
// determinism contract: the emitted module — and therefore every byte of the
// lowered image — is identical for any worker count and for cache-warm
// replays, because
//
//   - the module skeleton (globals, function list, names) is built serially
//     in entry order before any body exists (lifter.NewSkeleton);
//   - each body is produced by a pure per-function computation (lift →
//     dynamic results → standard opt pipeline) that reads only the shared
//     immutable image/graph and writes only its own function;
//   - memory-access SiteIDs are numbered function-locally and rebased
//     serially in entry order afterwards (lifter.FinalizeSites), exactly
//     reproducing the serial whole-module numbering;
//   - a cache hit decodes (ir.DecodeFuncInto) the byte-identical body the
//     same computation produced earlier (keys cover all of its inputs,
//     cache.go).
//
// Only the interprocedural stages — callback-driven inlining and lowering —
// run serially, and the function cache is disabled while callback pruning is
// active (inlining couples function bodies across the module, so the
// per-function key no longer covers a body's inputs).
package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/lifter"
	"repro/internal/lower"
	"repro/internal/mx"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/pool"
	"repro/internal/store"
)

// target resolves Opts.Target to its ISA description ("" means the default
// MX64), or nil when the name is unknown.
func (p *Project) target() *mx.Target { return mx.TargetByName(p.Opts.Target) }

// pipeWorkers resolves the configured pipeline worker count.
func (p *Project) pipeWorkers() int {
	if p.Opts.Workers > 0 {
		return p.Opts.Workers
	}
	return runtime.NumCPU()
}

// Recompile runs lift -> optimize -> lower over the current CFG and returns
// the standalone recompiled binary. Lifting and optimization are parallel
// and cached per function; the output bytes are independent of the worker
// count and of cache warmth (see the package comment above).
//
// The final lowered image is itself an artifact, keyed by the input image
// bytes, the merged graph's derivation key, the option bits, and the
// dynamic-analysis state (stages.go). A store hit short-circuits the whole
// pipeline: the graph need not materialize.
func (p *Project) Recompile() (*image.Image, error) {
	if err := p.ctxErr(); err != nil {
		return nil, fmt.Errorf("core: recompile cancelled: %w", err)
	}
	tgt := p.target()
	if tgt == nil {
		return nil, fmt.Errorf("core: unknown target %q", p.Opts.Target)
	}
	rsp := p.Opts.Obs.Begin(p.obsTID(), "pipeline", "recompile")
	imgKey, imgKeyOK := p.imageKey()
	img, tier, ok := p.replayImage(imgKey, imgKeyOK)
	if !ok && p.Graph == nil {
		if _, err := p.CFG(); err != nil {
			rsp.End()
			return nil, err
		}
		// A pending session that fell back re-keyed the graph and may have
		// re-derived the callback set: probe where a project that
		// materialized first would, and file the build there.
		if k, kok := p.imageKey(); k != imgKey || kok != imgKeyOK {
			imgKey, imgKeyOK = k, kok
			img, tier, ok = p.replayImage(imgKey, imgKeyOK)
		}
	}
	if ok {
		rsp.Arg("code_size", p.Stats.CodeSize).Arg("tier", tier).End()
		return img, nil
	}
	st := p.buildState()
	lf, err := p.buildModule(st)
	if err != nil {
		rsp.End()
		return nil, err
	}
	numExternal := 0
	for _, f := range lf.Mod.Funcs {
		if f.External {
			numExternal++
		}
	}
	lsp := p.Opts.Obs.Begin(p.obsTID(), "pipeline", "lower")
	t0 := time.Now()
	res, err := lower.LowerWithOptions(lf, lower.Options{Target: tgt})
	d := time.Since(t0)
	lsp.End()
	if err != nil {
		rsp.End()
		p.Stats.update(func() { p.Stats.LowerTime += d })
		return nil, err
	}
	stats := imageStats{codeSize: res.CodeSize, numExternal: numExternal, fences: res.Fences,
		fencesGone: st.removeFences}
	p.Stats.update(func() {
		p.Stats.LowerTime += d
		p.Stats.CodeSize = res.CodeSize
		p.Stats.Fences = res.Fences
		p.Stats.NumExternal = numExternal
		p.Stats.FencesGone = st.removeFences
		p.Stats.Recompiles++
		stats.funcs, stats.blocks = p.Stats.Funcs, p.Stats.Blocks
	})
	if imgKeyOK {
		p.storePut(nsImage, imgKey, stats.encode(res.Img))
	}
	rsp.Arg("code_size", res.CodeSize).End()
	return res.Img, nil
}

// replayImage probes the store for the final lowered image under key and,
// on a hit, restores the scalar stats a full pipeline run would have
// produced so cold and replayed recompiles report identically. The graph's
// function and block counts are restored only while the graph has not
// materialized; once it has, Stats already holds its own.
func (p *Project) replayImage(key store.Key, keyOK bool) (*image.Image, string, bool) {
	if !keyOK {
		return nil, "", false
	}
	data, tier, ok := p.storeGet(nsImage, key)
	if !ok {
		return nil, "", false
	}
	img, st, ok := decodeImage(data)
	if !ok {
		return nil, "", false
	}
	lazy := p.Graph == nil
	p.Stats.update(func() {
		p.Stats.CodeSize = st.codeSize
		p.Stats.NumExternal = st.numExternal
		p.Stats.Fences = st.fences
		p.Stats.FencesGone = st.fencesGone
		p.Stats.Recompiles++
		if lazy {
			p.Stats.Funcs, p.Stats.Blocks = st.funcs, st.blocks
		}
	})
	return img, tier, true
}

// buildState is the dynamic-analysis state one module build applies. The
// builder takes it as an argument rather than reading the project, so that
// FenceOptimize builds the plain module whatever analyses have run, and its
// bodies are filed under the keys of what was actually built.
type buildState struct {
	callbacks    map[uint64]bool // observed external entries; nil = not pruned
	removeFences bool
	optimize     bool
}

// buildState returns the state the project's analyses have established.
func (p *Project) buildState() buildState {
	return buildState{callbacks: p.callbackSet, removeFences: p.removeFences, optimize: true}
}

// noCallbacks reports whether the callback analysis proved that no guest
// function other than the program entry is ever entered from the host.
func (s buildState) noCallbacks(entry uint64) bool {
	if s.callbacks == nil {
		return false
	}
	for addr := range s.callbacks {
		if addr != entry {
			return false
		}
	}
	return true
}

// buildModule lifts the current CFG with st applied, optimizing when
// st.optimize is set, and returns the module ready for lowering or analysis.
// Each worker task applies the dynamic results to its own function right
// after lifting it: a function outside the callback set (never the program
// entry) loses its external wrapper, and fence removal drops its fences.
// The graph materializes first, before any worker reads it.
func (p *Project) buildModule(st buildState) (*lifter.Lifted, error) {
	g, err := p.CFG()
	if err != nil {
		return nil, err
	}
	wall0 := time.Now()
	defer func() {
		d := time.Since(wall0)
		p.Stats.update(func() { p.Stats.LiftOptWall += d })
	}()

	tr := p.Opts.Obs
	ssp := tr.Begin(p.obsTID(), "pipeline", "skeleton")
	lf := lifter.NewSkeleton(p.Img, g)
	funcs := lifter.SortedFuncs(g)
	ssp.Arg("funcs", len(funcs)).End()
	lopts := lifter.Options{InsertFences: true, NaiveAtomics: p.Opts.NaiveAtomics}
	oo := opt.Options{Verify: p.Opts.VerifyIR, NoCallbacks: st.noCallbacks(p.Img.Entry)}

	// One trace track per pool worker, allocated up front (AllocTID is safe
	// concurrently, but allocating serially keeps track numbering stable):
	// complete events on one track must not overlap, and each worker's
	// per-function spans do overlap those of its siblings.
	var wtids []int64
	if tr.Enabled() {
		nw := pool.Clamp(p.pipeWorkers(), len(funcs))
		wtids = make([]int64, nw)
		for w := range wtids {
			wtids[w] = tr.AllocTID(fmt.Sprintf("pipe-worker %d", w))
		}
	}
	workerTID := func(w int) int64 {
		if len(wtids) == 0 {
			return 0
		}
		return wtids[w]
	}

	// Fused per-function lift+optimize requires that no interprocedural
	// stage runs between them; callback pruning introduces one (inlining).
	fused := st.callbacks == nil
	tgt := p.target()
	cacheable := fused && p.store != nil && tgt != nil

	var keys []store.Key
	if cacheable {
		isFunc := make(map[uint64]bool, len(funcs))
		for _, cf := range funcs {
			isFunc[cf.Entry] = true
		}
		ko := p.keyOpts(st, tgt.ID)
		fsp := tr.Begin(p.obsTID(), "pipeline", "fingerprint")
		keys = make([]store.Key, len(funcs))
		for i, cf := range funcs {
			fk, ok := p.funcKey(fingerprintFunc(p.Img, g, cf, isFunc, ko))
			if !ok {
				cacheable = false
				break
			}
			keys[i] = fk
		}
		fsp.Arg("funcs", len(funcs)).End()
	}

	counts := make([]int, len(funcs))
	var hits, misses atomic.Int64
	task := func(w, i int) error {
		cf := funcs[i]
		sp := tr.Begin(workerTID(w), "pipeline", "func",
			obs.Arg{Key: "entry", Val: fmt.Sprintf("%#x", cf.Entry)},
			obs.Arg{Key: "worker", Val: w})
		defer sp.End()
		if cacheable {
			if sites, tier, ok := p.replayFunc(keys[i], lf, cf.Entry); ok {
				counts[i] = sites
				hits.Add(1)
				sp.Arg("cache", "hit").Arg("tier", tier).Arg("sites", sites)
				return nil
			}
			misses.Add(1)
			sp.Arg("cache", "miss")
		} else {
			sp.Arg("cache", "off")
		}
		t0 := time.Now()
		sites, err := lf.LiftFunc(cf, lopts)
		ld := time.Since(t0)
		p.Stats.update(func() { p.Stats.LiftTime += ld })
		if err != nil {
			return err
		}
		counts[i] = sites
		sp.Arg("sites", sites).Arg("lift_us", ld.Microseconds())
		f := lf.FuncByAddr[cf.Entry]
		if st.callbacks != nil && cf.Entry != p.Img.Entry && !st.callbacks[cf.Entry] {
			f.External = false
		}
		if st.removeFences {
			opt.RemoveFences(f)
		}
		if !fused {
			return nil
		}
		if st.optimize {
			t1 := time.Now()
			oerr := opt.RunFunc(f, oo)
			od := time.Since(t1)
			p.Stats.update(func() { p.Stats.OptTime += od })
			if oerr != nil {
				return oerr
			}
			sp.Arg("opt_us", od.Microseconds())
		}
		if cacheable {
			p.putFunc(keys[i], f, sites)
		}
		return nil
	}
	if err := pool.RunCtx(p.Opts.Ctx, p.pipeWorkers(), len(funcs), task); err != nil {
		return nil, err
	}
	p.Stats.update(func() {
		p.Stats.CacheHits += int(hits.Load())
		p.Stats.CacheMisses += int(misses.Load())
	})

	fssp := tr.Begin(p.obsTID(), "pipeline", "finalize-sites")
	countByEntry := make(map[uint64]int, len(funcs))
	for i, cf := range funcs {
		countByEntry[cf.Entry] = counts[i]
	}
	lf.FinalizeSites(countByEntry)
	fssp.End()

	if !fused && st.optimize {
		// Callback pruning is active: inline the de-externalized functions
		// (§3.3.3), then optimize — per function, in parallel.
		isp := tr.Begin(p.obsTID(), "pipeline", "inline-opt")
		t0 := time.Now()
		opt.Inline(lf.Mod, 300)
		mfuncs := lf.Mod.Funcs
		oerr := pool.RunCtx(p.Opts.Ctx, p.pipeWorkers(), len(mfuncs), func(w, i int) error {
			sp := tr.Begin(workerTID(w), "pipeline", "opt-func",
				obs.Arg{Key: "name", Val: mfuncs[i].Name},
				obs.Arg{Key: "worker", Val: w})
			defer sp.End()
			return opt.RunFunc(mfuncs[i], oo)
		})
		od := time.Since(t0)
		p.Stats.update(func() { p.Stats.OptTime += od })
		isp.End()
		if oerr != nil {
			return nil, oerr
		}
	}

	// Whole-module verification catches cross-function damage no matter
	// which path — fresh lift, cache replay, or inline — produced a body.
	vsp := tr.Begin(p.obsTID(), "pipeline", "verify")
	err = ir.Verify(lf.Mod)
	vsp.End()
	if err != nil {
		return nil, fmt.Errorf("core: module verification failed: %w", err)
	}
	return lf, nil
}
