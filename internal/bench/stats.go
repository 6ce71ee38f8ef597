package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// StageStats aggregates per-stage pipeline timings and cell counters across
// the cells of a harness run, so the bench harness doubles as a pipeline
// profiler. Cells absorb their finished projects concurrently, hence the
// mutex.
type StageStats struct {
	mu sync.Mutex
	s  StageSnapshot
}

// StageSnapshot is a plain, copyable view of the aggregated statistics.
type StageSnapshot struct {
	Disasm, Trace, Lift, Opt, Lower time.Duration
	// LiftOptWall is the wall clock of the (parallel) lift+optimize
	// sections; with several pipeline workers it sits well below Lift+Opt,
	// which sum per-function CPU time.
	LiftOptWall time.Duration
	// CacheHits/CacheMisses aggregate function-cache outcomes: a hit
	// replayed a cached optimized body, a miss lifted and optimized the
	// function from scratch.
	CacheHits, CacheMisses int
	// Store* aggregate artifact-store lookups per tier across every project
	// the harness built: a memory miss falls through to the disk tier (when
	// one is attached, cmd/polybench's -store), so StoreDiskHits > 0 means
	// artifacts persisted from an earlier run (or cell) were replayed.
	StoreMemHits, StoreMemMisses   int
	StoreDiskHits, StoreDiskMisses int
	TraceInsts                     uint64 // guest instructions executed by the ICFT tracer
	// Fences sums the fence instructions lowering emitted across every
	// recompile (zero on the default TSO target, where the machine provides
	// the ordering; nonzero for weakly-ordered targets).
	Fences        int
	Cells, Failed int
	Wall          time.Duration // wall clock of the table/figure runs
}

// absorb adds one project's stage timings. The calling cell owns p and its
// pipeline calls have returned, so reading the fields is race-free.
func (st *StageStats) absorb(p *core.Project) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.s.Disasm += p.Stats.DisasmTime
	st.s.Trace += p.Stats.TraceTime
	st.s.Lift += p.Stats.LiftTime
	st.s.Opt += p.Stats.OptTime
	st.s.Lower += p.Stats.LowerTime
	st.s.LiftOptWall += p.Stats.LiftOptWall
	st.s.CacheHits += p.Stats.CacheHits
	st.s.CacheMisses += p.Stats.CacheMisses
	st.s.StoreMemHits += p.Stats.StoreMemHits
	st.s.StoreMemMisses += p.Stats.StoreMemMisses
	st.s.StoreDiskHits += p.Stats.StoreDiskHits
	st.s.StoreDiskMisses += p.Stats.StoreDiskMisses
	st.s.TraceInsts += p.Stats.TraceInsts
	st.s.Fences += p.Stats.Fences
}

// cellDone accounts one executed cell.
func (st *StageStats) cellDone(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.s.Cells++
	if err != nil {
		st.s.Failed++
	}
}

// addWall accumulates table wall-clock time.
func (st *StageStats) addWall(d time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.s.Wall += d
}

// Stats returns a snapshot of the statistics accumulated since the last
// ResetStats (or harness creation).
func (h *Harness) Stats() StageSnapshot {
	h.stats.mu.Lock()
	defer h.stats.mu.Unlock()
	return h.stats.s
}

// ResetStats clears the accumulated statistics; cmd/polybench resets
// between sections so each footer profiles one table.
func (h *Harness) ResetStats() {
	h.stats.mu.Lock()
	defer h.stats.mu.Unlock()
	h.stats.s = StageSnapshot{}
}

// trackWall is deferred by the table generators: defer h.trackWall(time.Now()).
func (h *Harness) trackWall(t0 time.Time) { h.stats.addWall(time.Since(t0)) }

// Add accumulates o into s; cmd/polybench sums the per-section snapshots
// into one run-wide snapshot for metrics export.
func (s *StageSnapshot) Add(o StageSnapshot) {
	s.Disasm += o.Disasm
	s.Trace += o.Trace
	s.Lift += o.Lift
	s.Opt += o.Opt
	s.Lower += o.Lower
	s.LiftOptWall += o.LiftOptWall
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.StoreMemHits += o.StoreMemHits
	s.StoreMemMisses += o.StoreMemMisses
	s.StoreDiskHits += o.StoreDiskHits
	s.StoreDiskMisses += o.StoreDiskMisses
	s.TraceInsts += o.TraceInsts
	s.Fences += o.Fences
	s.Cells += o.Cells
	s.Failed += o.Failed
	s.Wall += o.Wall
}

// CacheHitRatio is hits/(hits+misses) of the function cache, or 0 with no
// lookups.
func (s StageSnapshot) CacheHitRatio() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// PipelineTotal is the total pipeline wall clock: the serial stages plus the
// lift+opt sections' wall time when recorded (Lift and Opt sum per-function
// CPU time across pipeline workers, which would overstate a parallel run).
func (s StageSnapshot) PipelineTotal() time.Duration {
	liftOpt := s.Lift + s.Opt
	if s.LiftOptWall > 0 {
		liftOpt = s.LiftOptWall
	}
	return s.Disasm + s.Trace + liftOpt + s.Lower
}

// Footer renders the per-table profiler block. cmd/polybench prints it to
// stderr so stdout stays byte-identical across worker counts. target is the
// lowering target the cells recompiled for (-target); cellWorkers is the
// harness cell-pool width (-j); pipeWorkers the per-recompile pipeline
// width (-jpipe).
func (s StageSnapshot) Footer(name, target string, cellWorkers, pipeWorkers int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "-- pipeline stats: %s (target %s, %d cell worker(s), %d pipeline worker(s)) --\n",
		name, target, cellWorkers, pipeWorkers)
	fmt.Fprintf(&sb, "cells run %d, failed %d | fences emitted %d\n", s.Cells, s.Failed, s.Fences)
	fmt.Fprintf(&sb, "disasm %s | trace %s | lift %s | opt %s | lower %s | stage total %s\n",
		roundDur(s.Disasm), roundDur(s.Trace), roundDur(s.Lift),
		roundDur(s.Opt), roundDur(s.Lower), roundDur(s.PipelineTotal()))
	fmt.Fprintf(&sb, "lift+opt wall %s | func cache hits %d, misses %d\n",
		roundDur(s.LiftOptWall), s.CacheHits, s.CacheMisses)
	fmt.Fprintf(&sb, "store mem hits %d, misses %d | disk hits %d, misses %d\n",
		s.StoreMemHits, s.StoreMemMisses, s.StoreDiskHits, s.StoreDiskMisses)
	fmt.Fprintf(&sb, "guest instructions traced %d\n", s.TraceInsts)
	fmt.Fprintf(&sb, "wall %s\n", roundDur(s.Wall))
	return sb.String()
}

func roundDur(d time.Duration) string { return d.Round(10 * time.Microsecond).String() }
