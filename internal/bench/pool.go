package bench

import (
	"fmt"
	"runtime"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/store"
)

// Harness executes the table/figure generators over a bounded worker pool.
//
// The unit of concurrency is a pipeline cell: one independent
// (workload × opt-level × fence-opt) measurement, which builds its own
// images and core.Project so cells share no mutable state. Results land at
// the cell's index in a preallocated row slice, so the formatted output is
// byte-identical at any worker count; only wall-clock measurements (Table 4,
// Figure 4 durations) vary, as they do between any two runs.
//
// The pool itself — and its error-ordering contract (one worker reproduces
// the historical serial behavior exactly: cells run in index order and the
// first failure stops the table; more workers run every cell and surface the
// lowest-index error) — is internal/pool, shared with the recompilation
// pipeline.
type Harness struct {
	workers int
	// pipeWorkers is the per-recompile pipeline width (core.Options.Workers,
	// cmd/polybench's -jpipe): how many functions one cell lifts/optimizes
	// concurrently. 0 = runtime.NumCPU(), 1 = the historical serial
	// pipeline. Orthogonal to workers, which fans out whole cells.
	pipeWorkers int
	stats       StageStats
	// tracer, when set, records one span per cell (and is handed to every
	// project the harness builds for its pipeline-stage spans).
	tracer *obs.Tracer
	// noFuncCache disables the artifact store in every project the harness
	// builds (cmd/polybench's -nopipecache).
	noFuncCache bool
	// store, when set, is the shared backing artifact tier (typically a disk
	// store, cmd/polybench's -store) handed to every project the harness
	// builds. Each project fronts it with its own generational memory tier.
	store store.Store
	// target names the lowering target every cell recompiles for
	// (cmd/polybench's -target; "" = the default mx64).
	target string
}

// NewHarness returns a harness running up to workers concurrent cells;
// workers <= 0 selects runtime.NumCPU().
func NewHarness(workers int) *Harness {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Harness{workers: workers}
}

// Workers reports the worker-pool width.
func (h *Harness) Workers() int { return h.workers }

// SetPipelineWorkers sets the per-recompile pipeline width used by every
// project the harness builds (0 = runtime.NumCPU(), 1 = serial).
func (h *Harness) SetPipelineWorkers(n int) { h.pipeWorkers = n }

// PipelineWorkers reports the effective per-recompile pipeline width.
func (h *Harness) PipelineWorkers() int {
	if h.pipeWorkers <= 0 {
		return runtime.NumCPU()
	}
	return h.pipeWorkers
}

// SetTracer attaches an observability tracer: the harness records one span
// per cell and every project it builds records pipeline-stage spans.
func (h *Harness) SetTracer(t *obs.Tracer) { h.tracer = t }

// SetNoFuncCache disables the artifact store in every project the harness
// builds (orthogonal to the VM predecode cache).
func (h *Harness) SetNoFuncCache(v bool) { h.noFuncCache = v }

// SetStore attaches a shared backing artifact tier (cmd/polybench's
// -store): every project the harness builds composes its own generational
// memory tier over st, so per-function bodies, CFGs, trace merges, and
// lowered images persist across cells — and, with a disk store, across
// polybench invocations.
func (h *Harness) SetStore(st store.Store) { h.store = st }

// SetTarget sets the lowering target every cell recompiles for ("" or
// "mx64" = the default TSO backend, "mx64w" = the weakly-ordered,
// register-poor profile). The caller validates the name (mx.TargetByName);
// the pipeline rejects unknown names with an error per cell.
func (h *Harness) SetTarget(name string) { h.target = name }

// Target reports the configured lowering target, normalized for display
// ("" reads as "mx64").
func (h *Harness) Target() string {
	if h.target == "" {
		return "mx64"
	}
	return h.target
}

// forEach runs f(i) for every i in [0,n), at most h.workers cells at a
// time, and accounts every executed cell in the harness stats. Error
// ordering follows the internal/pool contract (serial early exit with one
// worker; lowest-index error otherwise).
func (h *Harness) forEach(n int, f func(i int) error) error {
	tr := h.tracer
	// Per-worker trace tracks: a worker's cell spans are sequential on its
	// track, so complete events never overlap within one track. Serial runs
	// keep the historical single "cells" track.
	var wtids []int64
	if tr.Enabled() {
		eff := pool.Clamp(h.workers, n)
		wtids = make([]int64, eff)
		if eff == 1 {
			wtids[0] = tr.AllocTID("cells")
		} else {
			for w := range wtids {
				wtids[w] = tr.AllocTID(fmt.Sprintf("cell-worker %d", w))
			}
		}
	}
	return pool.Run(h.workers, n, func(w, i int) error {
		ctid := int64(0)
		if len(wtids) > 0 {
			ctid = wtids[w]
		}
		sp := tr.Begin(ctid, "bench", "cell", obs.Arg{Key: "cell", Val: i})
		err := f(i)
		sp.Arg("failed", err != nil).End()
		h.stats.cellDone(err)
		return err
	})
}
