package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// This file defines BENCH_obs.json, the observability-overhead record emitted
// by the differential benchmarks in obsbench_test.go (go test -bench
// BenchmarkObs ./internal/bench/...). Each benchmark runs the same workload
// twice — instrumentation off and on — and the Overheads map records the
// on/off time ratio. The StepLoop "off" row is the disabled-path evidence
// of DESIGN.md §6: it times the VM's fast loop, which has no counter
// checks, on the same program as the "on" row's per-step loop.

// ObsBenchEntry is one observability differential measurement.
type ObsBenchEntry struct {
	// Name identifies the workload, e.g. "StepLoop" or "Recompile".
	Name string `json:"name"`
	// Instrumented records whether the observability layer was on: machine
	// counters for guest-execution workloads, span tracing for pipeline
	// workloads.
	Instrumented bool `json:"instrumented"`
	// Seconds is the wall-clock time per operation.
	Seconds float64 `json:"seconds"`
	// Insts and InstsPerSec are filled for guest-execution workloads.
	Insts       uint64  `json:"insts,omitempty"`
	InstsPerSec float64 `json:"insts_per_sec,omitempty"`
}

// ObsBenchReport is the BENCH_obs.json document.
type ObsBenchReport struct {
	Benchmarks []ObsBenchEntry `json:"benchmarks"`
	// Overheads maps each workload measured both ways to
	// instrumented-seconds / uninstrumented-seconds: 1.0 means the
	// instrumentation was free, 1.05 means 5% slower with it on.
	Overheads map[string]float64 `json:"overheads,omitempty"`
}

// NewObsBenchReport assembles a report, computing the instrumented-over-plain
// time ratio for every workload measured in both modes.
func NewObsBenchReport(entries []ObsBenchEntry) *ObsBenchReport {
	r := &ObsBenchReport{Benchmarks: append([]ObsBenchEntry(nil), entries...)}
	sort.SliceStable(r.Benchmarks, func(i, j int) bool {
		a, b := r.Benchmarks[i], r.Benchmarks[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return !a.Instrumented && b.Instrumented
	})
	plain := map[string]float64{}
	for _, e := range r.Benchmarks {
		if !e.Instrumented {
			plain[e.Name] = e.Seconds
		}
	}
	for _, e := range r.Benchmarks {
		if !e.Instrumented {
			continue
		}
		base, ok := plain[e.Name]
		if !ok || base <= 0 {
			continue
		}
		if r.Overheads == nil {
			r.Overheads = map[string]float64{}
		}
		r.Overheads[e.Name] = e.Seconds / base
	}
	return r
}

// WriteObsBench writes the report for entries to path as indented JSON.
func WriteObsBench(path string, entries []ObsBenchEntry) error {
	data, err := json.MarshalIndent(NewObsBenchReport(entries), "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
