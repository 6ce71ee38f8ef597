package bench

import (
	"fmt"
	"runtime"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vm"
)

// BuildMetrics renders a harness pipeline snapshot, the backing artifact
// store's per-tier counters (nil when no -store), and an aggregated
// machine-counter snapshot (nil when counters were off) as a Prometheus
// metric set — the payload behind cmd/polybench's -metrics flag. All values
// are end-of-run totals, so counters use the _total convention and ratios
// are gauges. target names the lowering target the run recompiled for; it
// labels every vm_* counter so cross-target scrapes stay distinguishable
// ("" normalizes to "mx64").
func BuildMetrics(s StageSnapshot, st map[string]store.Counters, c *vm.Counters, target string) *obs.MetricSet {
	if target == "" {
		target = "mx64"
	}
	tl := obs.Label{Key: "target", Val: target}
	ms := obs.NewMetricSet()

	stage := ms.Gauge("pipeline_stage_seconds",
		"Per-stage pipeline time; lift and opt sum per-function CPU time across workers, lift_opt_wall is the parallel sections' wall clock.")
	stage.Set(s.Disasm.Seconds(), obs.Label{Key: "stage", Val: "disasm"})
	stage.Set(s.Trace.Seconds(), obs.Label{Key: "stage", Val: "trace"})
	stage.Set(s.Lift.Seconds(), obs.Label{Key: "stage", Val: "lift"})
	stage.Set(s.Opt.Seconds(), obs.Label{Key: "stage", Val: "opt"})
	stage.Set(s.Lower.Seconds(), obs.Label{Key: "stage", Val: "lower"})
	stage.Set(s.LiftOptWall.Seconds(), obs.Label{Key: "stage", Val: "lift_opt_wall"})
	ms.Gauge("pipeline_total_seconds",
		"Total pipeline wall clock (serial stages + parallel lift/opt wall).").
		Set(s.PipelineTotal().Seconds())
	ms.Gauge("pipeline_wall_seconds",
		"Wall clock of the table/figure runs.").Set(s.Wall.Seconds())
	ms.Counter("pipeline_cache_hits_total",
		"Function-cache hits (optimized bodies replayed instead of re-lifted).").
		Set(float64(s.CacheHits))
	ms.Counter("pipeline_cache_misses_total",
		"Function-cache misses (functions lifted and optimized from scratch).").
		Set(float64(s.CacheMisses))
	ms.Gauge("pipeline_cache_hit_ratio",
		"Function-cache hits / lookups.").Set(s.CacheHitRatio())
	ms.Counter("pipeline_cells_total",
		"Benchmark cells executed.").Set(float64(s.Cells))
	ms.Counter("pipeline_cells_failed_total",
		"Benchmark cells that returned an error.").Set(float64(s.Failed))
	ms.Counter("pipeline_trace_insts_total",
		"Guest instructions executed by the ICFT tracer.").Set(float64(s.TraceInsts))

	hits := ms.Counter("pipeline_store_hits_total",
		"Artifact-store hits per tier, summed over every project the harness built.")
	misses := ms.Counter("pipeline_store_misses_total",
		"Artifact-store misses per tier (a memory miss falls through to the disk tier when one is attached).")
	hits.Set(float64(s.StoreMemHits), obs.Label{Key: "tier", Val: "mem"})
	hits.Set(float64(s.StoreDiskHits), obs.Label{Key: "tier", Val: "disk"})
	misses.Set(float64(s.StoreMemMisses), obs.Label{Key: "tier", Val: "mem"})
	misses.Set(float64(s.StoreDiskMisses), obs.Label{Key: "tier", Val: "disk"})

	var tiers string
	if st != nil {
		// The backing store's own view: unlike the pipeline_store_* counters
		// above it includes corruption rejects and swallowed I/O errors, which
		// the pipeline only ever sees as misses.
		tiers = store.ExportTierOps(ms.Counter("store_tier_ops_total",
			"Backing artifact-store operations by tier and outcome; corrupt entries are deleted and recounted as misses, errors are swallowed writes."), st)
	}

	// Build/runtime info, the same family polynimad exports, so one fleet
	// dashboard can tell which toolchain and configuration produced every
	// scrape regardless of whether it came from a daemon or a bench run.
	ms.Gauge("polynima_build_info",
		"Build/runtime info: constant 1 with the go version and store tiers in labels.").
		Set(1,
			obs.Label{Key: "go_version", Val: runtime.Version()},
			obs.Label{Key: "store_tiers", Val: tiers})

	if c == nil {
		return ms
	}
	ms.Counter("vm_insts_total",
		"Guest instructions retired across all machines.").Set(float64(c.Insts), tl)
	ms.Counter("vm_icache_hits_total",
		"Predecoded-instruction-cache page hits.").Set(float64(c.ICacheHits), tl)
	ms.Counter("vm_icache_misses_total",
		"Predecoded-instruction-cache page fills.").Set(float64(c.ICacheMisses), tl)
	ms.Counter("vm_icache_invalidations_total",
		"Predecoded pages dropped because guest code was stored over.").
		Set(float64(c.ICacheInvalidations), tl)
	ms.Gauge("vm_icache_hit_ratio",
		"Icache hits / (hits + misses).").Set(c.ICacheHitRatio(), tl)
	ms.Counter("vm_tlb_hits_total",
		"Software-TLB hits.").Set(float64(c.TLBHits), tl)
	ms.Counter("vm_tlb_misses_total",
		"Software-TLB misses (page-map walks).").Set(float64(c.TLBMisses), tl)
	ms.Gauge("vm_tlb_hit_ratio",
		"TLB hits / (hits + misses).").Set(c.TLBHitRatio(), tl)
	ms.Counter("vm_preemptions_total",
		"Scheduler switches away from a still-runnable thread.").
		Set(float64(c.Preemptions), tl)
	ms.Counter("vm_lock_rmw_total",
		"Lock-prefixed read-modify-write instructions retired (incl. XCHG and CMPXCHG).").
		Set(float64(c.LockRMW), tl)
	ms.Counter("vm_cmpxchg_total",
		"CMPXCHG instructions retired.").Set(float64(c.Cmpxchg), tl)
	ms.Counter("vm_indirect_branches_total",
		"Dynamically resolved control transfers retired (JMPR/JMPM/CALLR).").
		Set(float64(c.IndirectBranches), tl)
	ms.Counter("vm_fences_total",
		"Fence instructions retired (nonzero only for weakly-ordered targets or hand-written guest fences).").
		Set(float64(c.Fences), tl)
	ms.Counter("vm_spill_ops_total",
		"Spill-slot accesses retired (rbp-relative negative-displacement 8-byte loads/stores), the dynamic cost of register pressure.").
		Set(float64(c.SpillOps), tl)

	opclass := ms.Counter("vm_opclass_insts_total",
		"Instructions retired per opcode class.")
	for cl := vm.OpClass(0); cl < vm.NumOpClasses; cl++ {
		opclass.Set(float64(c.OpClassCounts[cl]), tl, obs.Label{Key: "class", Val: cl.String()})
	}
	ti := ms.Counter("vm_thread_insts_total",
		"Instructions retired per guest thread ID.")
	tc := ms.Counter("vm_thread_cycles_total",
		"Cycles charged per guest thread ID.")
	for tid, t := range c.Threads {
		l := obs.Label{Key: "thread", Val: fmt.Sprintf("%d", tid)}
		ti.Set(float64(t.Insts), tl, l)
		tc.Set(float64(t.Cycles), tl, l)
	}
	return ms
}
