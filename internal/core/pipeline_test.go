package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/spindet"
	"repro/internal/workloads"
)

func marshalImg(t *testing.T, img *image.Image) []byte {
	t.Helper()
	b, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func recompileWith(t *testing.T, img *image.Image, mod func(*core.Options)) (*core.Project, []byte) {
	t.Helper()
	o := options()
	if mod != nil {
		mod(&o)
	}
	p, err := core.NewProject(img, o)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	return p, marshalImg(t, rec)
}

// TestRecompileIdentityAcrossWorkersAndCache is the differential test behind
// the pipeline's determinism contract (DESIGN.md §3): the recompiled bytes
// must be identical for the historical serial path (-jpipe 1, cache off), a
// parallel run, a cold cached run, and a cache-warm replay.
func TestRecompileIdentityAcrossWorkersAndCache(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"threaded", threadedSrc},
		{"fptr", fptrSrc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := compile(t, tc.src, 2)
			_, serial := recompileWith(t, img, func(o *core.Options) {
				o.Workers = 1
				o.NoFuncCache = true
			})
			_, parallel := recompileWith(t, img, func(o *core.Options) {
				o.Workers = 8
				o.NoFuncCache = true
			})
			if !bytes.Equal(serial, parallel) {
				t.Fatal("parallel recompile diverged from serial bytes")
			}

			// Cold cached recompile, then a cache-warm replay on the same
			// project: both must reproduce the serial bytes exactly.
			o := options()
			o.Workers = 8
			p, err := core.NewProject(img, o)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := p.Recompile()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial, marshalImg(t, cold)) {
				t.Fatal("cold cached recompile diverged from serial bytes")
			}
			if p.Stats.CacheHits != 0 || p.Stats.CacheMisses != p.Stats.Funcs {
				t.Fatalf("cold run: hits=%d misses=%d funcs=%d",
					p.Stats.CacheHits, p.Stats.CacheMisses, p.Stats.Funcs)
			}
			warm, err := p.Recompile()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial, marshalImg(t, warm)) {
				t.Fatal("cache-warm recompile diverged from serial bytes")
			}
			// The warm replay is served whole by the image-level artifact
			// (memory tier): nothing was re-fingerprinted or re-lifted, and
			// the function bodies stored by the cold run are still live.
			if p.Stats.CacheHits != 0 || p.Stats.CacheMisses != p.Stats.Funcs {
				t.Fatalf("warm run: hits=%d misses=%d funcs=%d (image replay must bypass the function stage)",
					p.Stats.CacheHits, p.Stats.CacheMisses, p.Stats.Funcs)
			}
			if p.Stats.StoreMemHits == 0 {
				t.Fatal("warm run: image artifact was not served from the memory tier")
			}
			if p.CachedFuncs() != p.Stats.Funcs {
				t.Fatalf("cache holds %d bodies, want %d", p.CachedFuncs(), p.Stats.Funcs)
			}
			if p.Stats.LiftOptWall == 0 {
				t.Fatal("LiftOptWall not recorded")
			}
		})
	}
}

// TestRecompileDeterministicAcrossRuns recompiles the same image from
// scratch several times per target and requires identical bytes each time.
// Both workloads have loops whose in-loop virtual-register stores the
// optimizer sinks to the loop exits, so the test fails if the order of that
// sinking depends on Go map iteration.
func TestRecompileDeterministicAcrossRuns(t *testing.T) {
	for _, name := range []string{"linear_regression", "astar_like"} {
		w := workloads.ByName(name)
		if w == nil {
			t.Fatalf("workload %s not found", name)
		}
		img, err := w.Compile(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []string{"mx64", "mx64w"} {
			var first []byte
			for run := 0; run < 4; run++ {
				_, got := recompileWith(t, img, func(o *core.Options) {
					o.Target = target
					o.NoFuncCache = true
				})
				if run == 0 {
					first = got
				} else if !bytes.Equal(first, got) {
					t.Fatalf("%s O2 %s: run %d diverged from run 0", name, target, run)
				}
			}
		}
	}
}

// TestAdditiveBatchedConvergence drives the incremental additive loop over
// the function-pointer dispatch workload at -O2: three handler entries are
// unknown statically, so convergence needs at least three loops. The batched
// loop must converge well before maxLoops, recompile incrementally (cache
// misses bounded by the functions each discovery touches, not by a full
// re-lift per loop), and land on exactly the bytes a serial cache-less
// additive session and a fully traced recompile produce.
func TestAdditiveBatchedConvergence(t *testing.T) {
	img := compile(t, fptrSrc, 2)
	in := core.Input{Data: []byte("012"), Seed: 3}
	const maxLoops = 8
	want := runImg(t, img, in)

	p, err := core.NewProject(img, options())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunAdditive(in, maxLoops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recompiles < 3 {
		t.Fatalf("recompiles = %d, want >= 3 (three unknown handlers)", res.Recompiles)
	}
	if res.Recompiles >= maxLoops {
		t.Fatalf("recompiles = %d, did not converge before maxLoops %d", res.Recompiles, maxLoops)
	}
	if res.Result.ExitCode != want.ExitCode {
		t.Fatalf("exit %d, want %d", res.Result.ExitCode, want.ExitCode)
	}

	// Incrementality: after the first (cold) recompile, each loop may
	// re-lift only the function owning the missed site plus the newly
	// discovered callee — not the whole module.
	if p.Stats.CacheHits == 0 {
		t.Fatal("incremental recompiles replayed nothing from cache")
	}
	if max := p.Stats.Funcs + 2*res.Recompiles; p.Stats.CacheMisses > max {
		t.Fatalf("cache misses %d exceed incremental bound %d (funcs=%d, recompiles=%d)",
			p.Stats.CacheMisses, max, p.Stats.Funcs, res.Recompiles)
	}

	// The serial, cache-less additive session lands on the same bytes.
	o := options()
	o.Workers = 1
	o.NoFuncCache = true
	p2, err := core.NewProject(img, o)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := p2.RunAdditive(in, maxLoops)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalImg(t, res.Img), marshalImg(t, res2.Img)) {
		t.Fatal("cached incremental additive bytes diverge from serial cache-less bytes")
	}

	// And so does a recompile after upfront tracing of the same input: the
	// additive loop converged onto the fully-traced CFG, byte for byte.
	p3, err := core.NewProject(img, options())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p3.Trace([]core.Input{in}); err != nil {
		t.Fatal(err)
	}
	rec3, err := p3.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalImg(t, res.Img), marshalImg(t, rec3)) {
		t.Fatal("additive final bytes diverge from fully-traced recompile")
	}
}

// TestFenceOptimizeBuildsThroughPipeline pins spinloop detection to the
// module builder Recompile uses: with the default store, its second build
// replays every body the first one stored and its optimization counts in
// OptTime; its Report and the fence-removed recompile that follows equal a
// cache-less project's; and it leaves the NumExternal Recompile reports
// alone.
func TestFenceOptimizeBuildsThroughPipeline(t *testing.T) {
	img := compile(t, threadedSrc, 2)
	in := []core.Input{{Seed: 1}}
	fenceOptimize := func(o core.Options) (*core.Project, *spindet.Report) {
		p, err := core.NewProject(img, o)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.FenceOptimize(in)
		if err != nil {
			t.Fatal(err)
		}
		return p, rep
	}
	recompile := func(p *core.Project) []byte {
		p.ForceFenceRemoval()
		rec, err := p.Recompile()
		if err != nil {
			t.Fatal(err)
		}
		return marshalImg(t, rec)
	}

	p, rep := fenceOptimize(options())
	if p.Stats.CacheHits != p.Stats.Funcs || p.Stats.OptTime <= 0 {
		t.Fatalf("after FenceOptimize: CacheHits %d (want %d, one per function), OptTime %v (want > 0)",
			p.Stats.CacheHits, p.Stats.Funcs, p.Stats.OptTime)
	}
	o := options()
	o.NoFuncCache = true
	ref, refRep := fenceOptimize(o)
	if !reflect.DeepEqual(rep, refRep) {
		t.Fatalf("report %+v, cache-less project's %+v", rep, refRep)
	}
	if !bytes.Equal(recompile(p), recompile(ref)) {
		t.Fatal("recompile after FenceOptimize diverges from the cache-less project's")
	}
	plain, err := core.NewProject(img, options())
	if err != nil {
		t.Fatal(err)
	}
	recompile(plain)
	if p.Stats.NumExternal != plain.Stats.NumExternal {
		t.Fatalf("NumExternal %d after FenceOptimize, %d without it",
			p.Stats.NumExternal, plain.Stats.NumExternal)
	}
}
