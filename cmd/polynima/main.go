// polynima is the command-line recompiler: project management, disassembly,
// ICFT tracing, lifting, (additive) recompilation, and execution of PXE
// binaries on the bundled MX64 machine.
//
// Usage:
//
//	polynima disasm  prog.pxe               print the recovered CFG (JSON)
//	polynima run     prog.pxe [-in file]    execute a binary
//	polynima recompile prog.pxe -o out.pxe  [-trace] [-fence-opt] [-prune]
//	                                        [-target mx64|mx64w]
//	polynima additive  prog.pxe [-in file]  run with the additive loop
//
// -store DIR backs the project's artifact store with a content-addressed
// disk tier, so a repeated recompile of the same binary replays its CFG,
// trace sessions, optimized function bodies, and lowered image from disk —
// with byte-identical output (DESIGN.md §3). -store-max-mb bounds that
// directory: the disk tier prunes its least-recently-modified entries back
// under the limit instead of growing monotonically.
//
// -remote-store URL adds a polynimad store service as a further backing
// tier, probed after the disk tier and written through alongside it, so a
// fleet of clients shares one warm store. Every remote failure — timeout,
// 5xx, corrupt frame — degrades to a counted miss: a dead daemon can slow
// a recompile down, never change its bytes.
//
// -cfg FILE (additive only) checkpoints the evolving CFG to FILE after
// every integrated miss batch, via an atomic temp-file + rename, and
// resumes discovery from the checkpoint on the next run — a session killed
// mid-loop loses at most the batch in flight, never the file.
//
// -tracefile FILE records a Chrome trace_event span trace of the pipeline.
// -traceparent joins an enclosing distributed trace (a driving orchestrator
// or CI job): the CLI takes a child position under it, and every
// -remote-store request propagates the position as a W3C traceparent
// header, so the store daemon's spans, access log, and
// X-Polynima-Trace-Id all carry the same trace id as the caller's.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/mx"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vm"
)

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	inFile := fs.String("in", "", "input byte stream file")
	outFile := fs.String("o", "", "output image")
	doTrace := fs.Bool("trace", false, "run the ICFT tracer before lifting")
	fenceOpt := fs.Bool("fence-opt", false, "run spinloop detection and remove fences when provable")
	prune := fs.Bool("prune", false, "run the callback-usage analysis and prune wrappers")
	seed := fs.Int64("seed", 1, "scheduler seed")
	target := fs.String("target", "", "lowering target ISA: mx64 (default) or mx64w (weakly ordered, register-poor)")
	storeDir := fs.String("store", "", "back the artifact store with a disk tier rooted at `dir`")
	storeMaxMB := fs.Int64("store-max-mb", 0, "prune the disk tier to at most `N` MiB (0 = unbounded)")
	remoteStore := fs.String("remote-store", "", "back the artifact store with a polynimad store service at `url`")
	remoteToken := fs.String("remote-store-token", "", "bearer `token` sent to the remote store service")
	cfgPath := fs.String("cfg", "", "additive: checkpoint the evolving CFG to `file` (atomic write) and resume from it")
	tracefile := fs.String("tracefile", "", "write a Chrome trace_event JSON span trace to `file`")
	traceparent := fs.String("traceparent", "", "join an enclosing distributed trace (W3C traceparent `value`)")
	imgPath := os.Args[2]
	_ = fs.Parse(os.Args[3:])

	// The process's trace position: a child of -traceparent when one was
	// given (so this run's remote store ops land in the caller's trace),
	// otherwise a fresh root.
	rootTC := obs.NewTraceContext()
	if *traceparent != "" {
		parsed, ok := obs.ParseTraceparent(*traceparent)
		if !ok {
			fmt.Fprintf(os.Stderr, "polynima: -traceparent %q is not a valid W3C traceparent; starting a new trace\n", *traceparent)
		} else {
			rootTC = parsed.Child()
		}
	}
	var tracer *obs.Tracer
	if *tracefile != "" {
		tracer = obs.New()
		tracer.SetTraceContext(rootTC)
	}
	// finishTrace writes the span trace; called explicitly before every exit
	// path because os.Exit skips deferred calls.
	finishTrace := func() {
		if tracer == nil {
			return
		}
		if err := tracer.WriteFile(*tracefile); err != nil {
			fmt.Fprintf(os.Stderr, "polynima: tracefile: %v\n", err)
			os.Exit(1)
		}
	}

	opts := core.DefaultOptions()
	opts.Obs = tracer
	if mx.TargetByName(*target) == nil {
		fmt.Fprintf(os.Stderr, "polynima: unknown -target %q (want mx64 or mx64w)\n", *target)
		os.Exit(2)
	}
	opts.Target = *target
	backing, err := store.OpenBacking(*storeDir, *storeMaxMB, *remoteStore, store.RemoteOptions{
		AuthToken:   *remoteToken,
		Traceparent: rootTC.Traceparent(),
	})
	check(err)
	opts.Store = backing

	data, err := os.ReadFile(imgPath)
	check(err)
	img, err := image.Unmarshal(data)
	check(err)

	var input []byte
	if *inFile != "" {
		input, err = os.ReadFile(*inFile)
		check(err)
	}
	in := core.Input{Data: input, Seed: *seed}

	switch cmd {
	case "disasm":
		p, err := core.NewProject(img, opts)
		check(err)
		g, err := p.CFG()
		check(err)
		out, err := g.Marshal()
		check(err)
		os.Stdout.Write(out)
	case "run":
		m, err := vm.New(img, *seed)
		check(err)
		if input != nil {
			m.SetInput(input)
		}
		res := m.Run(4_000_000_000)
		fmt.Print(res.Output)
		finishTrace()
		if res.Fault != nil {
			fmt.Fprintln(os.Stderr, res.Fault)
			os.Exit(1)
		}
		os.Exit(res.ExitCode)
	case "recompile":
		p, err := core.NewProject(img, opts)
		check(err)
		if *doTrace {
			_, err := p.Trace([]core.Input{in})
			check(err)
		}
		if *prune {
			check(p.PruneCallbacks([]core.Input{in}))
		}
		if *fenceOpt {
			rep, err := p.FenceOptimize([]core.Input{in})
			check(err)
			fmt.Fprintf(os.Stderr, "spinloop analysis: %d non-spinning, %d spinning, %d uncovered; fences removable: %v\n",
				rep.NonSpinning, rep.Spinning, rep.Uncovered, rep.FencesRemovable)
		}
		rec, err := p.Recompile()
		check(err)
		out, err := rec.Marshal()
		check(err)
		if *outFile == "" {
			os.Stdout.Write(out)
		} else {
			check(os.WriteFile(*outFile, out, 0o644))
		}
		fmt.Fprintf(os.Stderr, "recompiled: %d funcs, %d blocks, %d bytes of new code, pipeline %s\n",
			p.Stats.Funcs, p.Stats.Blocks, p.Stats.CodeSize, p.Stats.Total())
		if opts.Store != nil {
			fmt.Fprint(os.Stderr, storeStatsLine(p, opts.Store))
		}
	case "additive":
		p, resumed, err := resumeProject(img, *cfgPath, opts)
		check(err)
		if resumed {
			fmt.Fprintf(os.Stderr, "additive: resuming from CFG checkpoint %s\n", *cfgPath)
		}
		res, err := p.RunAdditive(in, 64)
		check(err)
		fmt.Print(res.Result.Output)
		fmt.Fprintf(os.Stderr, "additive: %d recompilation loops, %d misses integrated\n",
			res.Recompiles, len(res.Misses))
		finishTrace()
		os.Exit(res.Result.ExitCode)
	default:
		usage()
	}
	finishTrace()
}

// storeStatsLine renders this run's per-tier store outcomes: the memory
// tier from the project's counters, the backing tiers from their own stats
// (which also count the swallowed errors, corrupt rejects, and retries the
// pipeline only ever observes as misses).
func storeStatsLine(p *core.Project, backing store.Store) string {
	parts := []string{fmt.Sprintf("mem hits %d, misses %d",
		p.Stats.StoreMemHits, p.Stats.StoreMemMisses)}
	st := backing.Stats()
	tiers := make([]string, 0, len(st))
	for tier := range st {
		tiers = append(tiers, tier)
	}
	sort.Strings(tiers)
	for _, tier := range tiers {
		c := st[tier]
		parts = append(parts, fmt.Sprintf("%s hits %d, misses %d, errors %d, retries %d",
			tier, c.Hits, c.Misses, c.Errors, c.Retries))
	}
	return "store: " + strings.Join(parts, " | ") + "\n"
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: polynima disasm|run|recompile|additive prog.pxe [flags]")
	os.Exit(2)
}
