package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestObsEventSetStableAcrossWorkers is the tracing side of the pipeline
// determinism contract: a serial (-jpipe 1) and a wide parallel recompile of
// the same binary must record the identical span *set* (category/name/phase
// keys) — only timestamps, track ids, and track metadata may differ.
func TestObsEventSetStableAcrossWorkers(t *testing.T) {
	img := compile(t, fptrSrc, 2)
	shape := func(workers int) []string {
		tr := obs.New()
		o := options()
		o.Workers = workers
		o.NoFuncCache = true
		o.Obs = tr
		p, err := core.NewProject(img, o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Recompile(); err != nil {
			t.Fatal(err)
		}
		if n := tr.OpenSpans(); n != 0 {
			t.Fatalf("workers=%d: %d span(s) still open after Recompile", workers, n)
		}
		return tr.Keys()
	}
	serial, parallel := shape(1), shape(8)
	if len(serial) == 0 {
		t.Fatal("serial recompile recorded no spans")
	}
	if strings.Join(serial, "\n") != strings.Join(parallel, "\n") {
		t.Fatalf("event set differs across worker widths:\nserial:   %v\nparallel: %v",
			serial, parallel)
	}
	for _, want := range []string{
		"pipeline/recompile/X", "pipeline/skeleton/X", "pipeline/func/X",
		"pipeline/finalize-sites/X", "pipeline/verify/X", "pipeline/lower/X",
	} {
		found := false
		for _, k := range serial {
			if k == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("event set missing %q: %v", want, serial)
		}
	}
}

// TestObsAdditiveTimeline checks the additive session's convergence
// timeline: one entry per recompiling loop, 0-based loop indices, every loop
// discovering at least one miss, and the span balance holding across the
// whole session (trace, guest runs, recompiles).
func TestObsAdditiveTimeline(t *testing.T) {
	img := compile(t, fptrSrc, 2)
	tr := obs.New()
	o := options()
	o.Obs = tr
	p, err := core.NewProject(img, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunAdditive(core.Input{Data: []byte("012"), Seed: 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("%d span(s) still open after RunAdditive", n)
	}
	if len(res.Timeline) != res.Recompiles {
		t.Fatalf("timeline has %d entries, want one per recompile (%d)",
			len(res.Timeline), res.Recompiles)
	}
	var relifted, hits int
	for i, st := range res.Timeline {
		if st.Loop != i {
			t.Errorf("timeline[%d].Loop = %d, want %d", i, st.Loop, i)
		}
		if st.Misses == 0 {
			t.Errorf("timeline[%d] recompiled without misses", i)
		}
		if st.Relifted == 0 {
			t.Errorf("timeline[%d] integrated misses but re-lifted nothing", i)
		}
		relifted += st.Relifted
		hits += st.CacheHits
	}
	// The per-loop cache splits must reconcile with the project totals minus
	// the initial cold recompile (which lifted every function, no lookups
	// recorded as timeline entries).
	if got := p.Stats.CacheMisses - p.Stats.Funcs; relifted != got {
		t.Errorf("timeline relifted sum = %d, want %d (total misses minus cold lift)",
			relifted, got)
	}
	if hits != p.Stats.CacheHits {
		t.Errorf("timeline cache-hit sum = %d, want %d", hits, p.Stats.CacheHits)
	}

	// The additive spans are on record: one additive-loop span per VM run
	// (converged loop included), each paired with a guest-run span.
	var loops, guests int
	for _, k := range tr.Keys() {
		switch k {
		case "additive/additive-loop/X":
			loops++
		case "guest/guest-run/X":
			guests++
		}
	}
	if loops != res.Recompiles+1 {
		t.Errorf("additive-loop spans = %d, want %d (recompiles + converged run)",
			loops, res.Recompiles+1)
	}
	if guests != loops {
		t.Errorf("guest-run spans = %d, want %d (one per additive loop)", guests, loops)
	}
}

// TestObsFenceOptimizeInstrumentedRuns checks the spinloop-detection
// span: FenceOptimize records one spindet/instrumented-run span per input,
// carrying the guest instructions the run executed, and closes it on the
// success path and on a cancelled run alike. Its builds record the module
// builder's pipeline/func spans; no serial whole-module lift or optimizer
// span is left.
func TestObsFenceOptimizeInstrumentedRuns(t *testing.T) {
	tr := obs.New()
	o := options()
	o.Obs = tr
	p, err := core.NewProject(compile(t, threadedSrc, 2), o)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []core.Input{{Seed: 1}, {Seed: 2}}
	if _, err := p.FenceOptimize(inputs); err != nil {
		t.Fatal(err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("%d span(s) still open after FenceOptimize", n)
	}
	var runs int
	for _, ev := range tr.Events() {
		if ev.Cat != "spindet" || ev.Name != "instrumented-run" {
			continue
		}
		args := map[string]any{}
		for _, a := range ev.Args {
			args[a.Key] = a.Val
		}
		if args["run"] != runs {
			t.Errorf("span %d: run = %v", runs, args["run"])
		}
		if n, _ := args["insts"].(uint64); n == 0 {
			t.Errorf("span %d: insts = %v, want > 0", runs, args["insts"])
		}
		if _, ok := args["sites"].(int); !ok {
			t.Errorf("span %d: sites = %v, want an int", runs, args["sites"])
		}
		runs++
	}
	if runs != len(inputs) {
		t.Fatalf("instrumented-run spans = %d, want one per input (%d)", runs, len(inputs))
	}
	funcSpans := 0
	for _, k := range tr.Keys() {
		switch {
		case k == "pipeline/func/X":
			funcSpans++
		case strings.HasPrefix(k, "lifter/lift-module/"), strings.HasPrefix(k, "opt/opt-module/"):
			t.Errorf("FenceOptimize recorded %s", k)
		}
	}
	if funcSpans == 0 {
		t.Error("FenceOptimize recorded no pipeline/func span")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o.Ctx = ctx
	p, err = core.NewProject(compile(t, longLoopSrc, 2), o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.FenceOptimize(nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled FenceOptimize err = %v, want context.Canceled", err)
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("%d span(s) still open after a cancelled FenceOptimize", n)
	}
}

// TestObsStatsTotalUsesWall checks the Stats.Total fix: with per-function
// lift/opt CPU times summed across workers, the stage total must use the
// recorded lift+opt wall clock instead of double-counting the per-worker
// sums.
func TestObsStatsTotalUsesWall(t *testing.T) {
	s := core.Stats{}
	s.DisasmTime, s.TraceTime, s.LowerTime = 1, 2, 4
	s.LiftTime, s.OptTime = 100, 200
	if got := s.Total(); got != 307 {
		t.Fatalf("serial total = %d, want 307 (no wall recorded, sum lift+opt)", got)
	}
	s.LiftOptWall = 50
	if got := s.Total(); got != 57 {
		t.Fatalf("parallel total = %d, want 57 (wall replaces lift+opt sums)", got)
	}
}
