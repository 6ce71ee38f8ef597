// polybench regenerates the paper's tables and figures (see internal/bench).
//
// Usage:
//
//	polybench -table 1|2|3|4|5 [-j N] [-jpipe N]
//	polybench -figure 4 [-j N] [-jpipe N]
//	polybench -all [-j N] [-jpipe N]
//
// -j sets how many pipeline cells run concurrently (default
// runtime.NumCPU(); -j 1 is the historical fully serial run). -jpipe sets
// how many functions each recompile lifts and optimizes concurrently
// (default runtime.NumCPU(); -jpipe 1 is the historical serial pipeline) —
// recompiled bytes are identical at any -jpipe, see DESIGN.md §3. The table
// text on stdout is byte-identical at any -j/-jpipe; a per-table
// pipeline-stats footer (stage times, lift+opt wall clock, function-cache
// hits/misses, cells run/failed, wall clock) goes to stderr so stdout stays
// diffable.
//
// Observability (DESIGN.md §"Observability"):
//
//	-tracefile trace.json   record spans for every pipeline stage, bench
//	                        cell, and guest run; written as Chrome
//	                        trace_event JSON (chrome://tracing, Perfetto)
//	-metrics metrics.prom   enable VM machine counters and write them plus
//	                        the run-wide pipeline stats in Prometheus text
//	                        format at exit
//
// -store DIR backs every project's artifact store with a content-addressed
// disk tier rooted at DIR, so CFGs, trace sessions, optimized function
// bodies, and lowered images persist across polybench invocations: a second
// run over a warm store replays its recompiles from disk and prints
// byte-identical tables (DESIGN.md §3, §"Artifact store"). The per-table
// footer's "disk hits" count shows how much was replayed; corrupted or
// truncated entries degrade to misses, never errors.
//
// -nopipecache disables the artifact store (the per-function recompile
// cache and friends).
// -cpuprofile/-memprofile write pprof profiles so perf work on the
// interpreter and pipeline needs no code edits.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
	"repro/internal/mx"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vm"
)

func main() {
	table := flag.Int("table", 0, "regenerate table N (1-5)")
	figure := flag.Int("figure", 0, "regenerate figure N (4)")
	all := flag.Bool("all", false, "regenerate everything")
	jobs := flag.Int("j", runtime.NumCPU(), "concurrent pipeline cells (1 = serial)")
	jpipe := flag.Int("jpipe", runtime.NumCPU(), "concurrent per-recompile function lifts/optimizations (1 = serial)")
	target := flag.String("target", "", "lowering target ISA: mx64 (default) or mx64w (weakly ordered, register-poor)")
	nopipecache := flag.Bool("nopipecache", false, "disable the artifact store (per-function recompile cache and friends)")
	storeDir := flag.String("store", "", "back the artifact store with a disk tier rooted at `dir` (persists across runs)")
	storeMaxMB := flag.Int64("store-max-mb", 0, "prune the disk tier to at most `N` MiB (0 = unbounded)")
	remoteStore := flag.String("remote-store", "", "back the artifact store with a polynimad store service at `url`")
	remoteToken := flag.String("remote-store-token", "", "bearer `token` sent to the remote store service")
	tracefile := flag.String("tracefile", "", "write a Chrome trace_event JSON span trace to `file`")
	metrics := flag.String("metrics", "", "enable VM counters and write Prometheus text metrics to `file`")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to `file`")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to `file`")
	flag.Parse()

	if mx.TargetByName(*target) == nil {
		fmt.Fprintf(os.Stderr, "polybench: unknown -target %q (want mx64 or mx64w)\n", *target)
		os.Exit(2)
	}
	// The harness's root trace position, propagated to every -remote-store
	// request so the store daemon's spans and logs carry this run's trace id.
	rootTC := obs.NewTraceContext()
	var tracer *obs.Tracer
	if *tracefile != "" {
		tracer = obs.New()
		tracer.SetTraceContext(rootTC)
	}
	var sink *vm.CounterSink
	if *metrics != "" {
		sink = vm.NewCounterSink()
		vm.CounterSinkDefault = sink
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		}
	}()

	h := bench.NewHarness(*jobs)
	h.SetPipelineWorkers(*jpipe)
	h.SetNoFuncCache(*nopipecache)
	h.SetTracer(tracer)
	h.SetTarget(*target)
	backing, err := store.OpenBacking(*storeDir, *storeMaxMB, *remoteStore, store.RemoteOptions{
		AuthToken:   *remoteToken,
		Traceparent: rootTC.Traceparent(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if backing != nil {
		h.SetStore(backing)
	}

	// total accumulates every section's stats: the per-section footers reset
	// between tables, but the metrics export covers the whole run.
	var total bench.StageSnapshot
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(1)
	}
	// finish writes the trace and metrics files. Called explicitly on both
	// exits (success and first failure) rather than deferred: os.Exit skips
	// deferred calls, and a partial trace of a failed run is exactly what
	// the flag is for.
	finish := func() {
		if tracer != nil {
			if n := tracer.OpenSpans(); n != 0 {
				fmt.Fprintf(os.Stderr, "tracefile: warning: %d span(s) still open\n", n)
			}
			if err := tracer.WriteFile(*tracefile); err != nil {
				fail("tracefile: %v", err)
			}
		}
		if sink != nil {
			var storeStats map[string]store.Counters
			if backing != nil {
				storeStats = backing.Stats()
			}
			if err := bench.BuildMetrics(total, storeStats, sink.Snapshot(), h.Target()).WriteFile(*metrics); err != nil {
				fail("metrics: %v", err)
			}
		}
	}
	run := func(name string, f func() (string, error)) {
		fmt.Printf("==== %s ====\n", name)
		h.ResetStats()
		sp := tracer.Begin(0, "bench", "section", obs.Arg{Key: "name", Val: name})
		txt, err := f()
		sp.End()
		snap := h.Stats()
		total.Add(snap)
		if err != nil {
			fmt.Fprint(os.Stderr, snap.Footer(name, h.Target(), h.Workers(), h.PipelineWorkers()))
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			finish()
			os.Exit(1)
		}
		fmt.Println(txt)
		fmt.Fprint(os.Stderr, snap.Footer(name, h.Target(), h.Workers(), h.PipelineWorkers()))
	}

	want := func(n int, kind string) bool {
		if *all {
			return true
		}
		if kind == "table" {
			return *table == n
		}
		return *figure == n
	}

	any := false
	if want(1, "table") {
		any = true
		run("Table 1", func() (string, error) { _, t, err := h.Table1(); return t, err })
	}
	if want(2, "table") {
		any = true
		run("Table 2", func() (string, error) {
			_, t, err := h.Table2()
			return "Table 2: Phoenix normalized runtimes\n" + t, err
		})
	}
	if want(3, "table") {
		any = true
		run("Table 3", h.Table3)
	}
	if want(4, "table") {
		any = true
		run("Table 4", func() (string, error) { _, t, err := h.Table4(); return t, err })
	}
	if want(5, "table") {
		any = true
		run("Table 5", func() (string, error) { _, t, err := h.Table5(); return t, err })
	}
	if want(4, "figure") {
		any = true
		run("Figure 4", func() (string, error) { _, t, err := h.Figure4(); return t, err })
	}
	if !any {
		flag.Usage()
		os.Exit(2)
	}
	finish()
}
