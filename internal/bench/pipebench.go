package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// This file defines BENCH_pipeline.json, the recompilation-pipeline record
// emitted by the pipeline micro-benchmarks (go test -bench
// 'BenchmarkRecompile|BenchmarkAdditiveLoop' ./internal/bench/...). CI
// uploads the file as a workflow artifact so the parallel/cached pipeline's
// perf trajectory is tracked PR over PR.

// Pipeline benchmark modes. "serial" is the historical baseline (-jpipe 1,
// function cache off); every speedup is relative to it.
const (
	PipeModeSerial   = "serial"
	PipeModeParallel = "parallel"
	PipeModeCached   = "cached"
)

// PipelineBenchEntry is one pipeline benchmark measurement.
type PipelineBenchEntry struct {
	// Name identifies the benchmark, e.g. "Recompile" or "AdditiveLoop".
	Name string `json:"name"`
	// Mode is the pipeline configuration: PipeModeSerial (-jpipe 1, cache
	// off), PipeModeParallel (-jpipe NumCPU, cache off), or PipeModeCached
	// (-jpipe NumCPU with the content-addressed function cache).
	Mode string `json:"mode"`
	// Workers is the pipeline width the mode ran with.
	Workers int `json:"workers"`
	// Funcs is the static function count of the benchmarked binary.
	Funcs int `json:"funcs"`
	// Recompiles counts recompilation loops (additive benchmarks only).
	Recompiles int `json:"recompiles,omitempty"`
	// CacheHits/CacheMisses are the function-cache outcome totals.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// Seconds is the wall-clock time per operation.
	Seconds float64 `json:"seconds"`
}

// PipelineBenchReport is the BENCH_pipeline.json document.
type PipelineBenchReport struct {
	Benchmarks []PipelineBenchEntry `json:"benchmarks"`
	// Speedups maps "Name/mode" to serial-seconds / mode-seconds for every
	// benchmark measured both serially and in that mode.
	Speedups map[string]float64 `json:"speedups,omitempty"`
}

// NewPipelineBenchReport assembles a report, computing each mode's speedup
// over the serial baseline of the same benchmark name.
func NewPipelineBenchReport(entries []PipelineBenchEntry) *PipelineBenchReport {
	r := &PipelineBenchReport{Benchmarks: append([]PipelineBenchEntry(nil), entries...)}
	sort.SliceStable(r.Benchmarks, func(i, j int) bool {
		a, b := r.Benchmarks[i], r.Benchmarks[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Mode < b.Mode
	})
	serial := map[string]float64{}
	for _, e := range r.Benchmarks {
		if e.Mode == PipeModeSerial {
			serial[e.Name] = e.Seconds
		}
	}
	for _, e := range r.Benchmarks {
		if e.Mode == PipeModeSerial {
			continue
		}
		base, ok := serial[e.Name]
		if !ok || e.Seconds <= 0 {
			continue
		}
		if r.Speedups == nil {
			r.Speedups = map[string]float64{}
		}
		r.Speedups[e.Name+"/"+e.Mode] = base / e.Seconds
	}
	return r
}

// WritePipelineBench writes the report for entries to path as indented JSON.
func WritePipelineBench(path string, entries []PipelineBenchEntry) error {
	data, err := json.MarshalIndent(NewPipelineBenchReport(entries), "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
