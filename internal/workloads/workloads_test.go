package workloads_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lifter"
	"repro/internal/lower"
	"repro/internal/mx"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/spindet"
	"repro/internal/tracer"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestAllWorkloadsRunCorrectly compiles every workload at O0 and O2 and
// checks the self-validating exit codes on the original binaries.
func TestAllWorkloadsRunCorrectly(t *testing.T) {
	all := workloads.All()
	all = append(all, workloads.Gapbs(32)...)
	if len(all) < 30 {
		t.Fatalf("registry too small: %d", len(all))
	}
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, ccOpt := range []int{0, 2} {
				img, err := w.Compile(ccOpt)
				if err != nil {
					t.Fatalf("O%d: %v", ccOpt, err)
				}
				res, err := w.Run(img, 500_000_000)
				if err != nil {
					t.Fatalf("O%d: %v", ccOpt, err)
				}
				if err := w.Check(res); err != nil {
					t.Fatalf("O%d: %v", ccOpt, err)
				}
			}
		})
	}
}

// TestWorkloadsRecompileCorrectly pushes every workload through the full
// recompiler and diffs against the original (the Table 1 Polynima column).
func TestWorkloadsRecompileCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	all := workloads.All()
	for _, w := range all {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			img, err := w.Compile(2)
			if err != nil {
				t.Fatal(err)
			}
			// VerifyIR checks every function's IR and use lists after each
			// optimization pass that changed it.
			o := core.DefaultOptions()
			o.VerifyIR = true
			p, err := core.NewProject(img, o)
			if err != nil {
				t.Fatal(err)
			}
			// Hybrid recovery: trace the primary input first.
			if _, err := p.Trace([]core.Input{w.Input()}); err != nil {
				t.Fatal(err)
			}
			rec, err := p.Recompile()
			if err != nil {
				t.Fatal(err)
			}
			origRes, err := w.Run(img, 1_000_000_000)
			if err != nil {
				t.Fatal(err)
			}
			recRes, err := w.Run(rec, 2_000_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Check(recRes); err != nil {
				t.Fatalf("recompiled: %v", err)
			}
			if origRes.ExitCode != recRes.ExitCode {
				t.Fatalf("exit divergence: %d vs %d", origRes.ExitCode, recRes.ExitCode)
			}
			_ = vm.Result{}
		})
	}
}

// TestPhoenixFenceRemovalExpectations checks the §4.3 verdicts: all Phoenix
// programs prove non-spinning except pca (false negative kept conservative)
// and histogram (uncovered loop), and every CKit lock is detected.
func TestPhoenixFenceRemovalExpectations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, w := range workloads.Phoenix() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			img, err := w.Compile(2)
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.NewProject(img, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := p.FenceOptimize([]core.Input{w.Input()})
			if err != nil {
				t.Fatal(err)
			}
			if rep.FencesRemovable != w.FenceRemovalExpected {
				for _, l := range rep.Loops {
					if l.Spinning || !l.Covered {
						t.Logf("loop %s@%#x spin=%v covered=%v: %s",
							l.Func, l.Header, l.Spinning, l.Covered, l.Reason)
					}
				}
				t.Fatalf("fence removal verdict %v, expected %v",
					rep.FencesRemovable, w.FenceRemovalExpected)
			}
		})
	}
}

func TestCKitLocksDetectedAsSpinning(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, w := range workloads.CKit() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			img, err := w.Compile(2)
			if err != nil {
				t.Fatal(err)
			}
			p, err := core.NewProject(img, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := p.FenceOptimize([]core.Input{w.Input()})
			if err != nil {
				t.Fatal(err)
			}
			if rep.FencesRemovable {
				t.Fatal("spinlock implementation not detected (§4.3 true negative)")
			}
		})
	}
}

// TestFenceOptimizeMatchesUnoptimizedInstrumentation pins the contract that
// lets FenceOptimize record on the optimized build it analyzes: the VM's
// access hook on that build records every analyzed site, so the Report
// equals the one built the old way, from an unoptimized build instrumented
// with one external call per access.
func TestFenceOptimizeMatchesUnoptimizedInstrumentation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ws := append(workloads.Phoenix(), workloads.CKit()...)
	for _, w := range ws {
		for _, level := range []int{0, 2} {
			for _, tgt := range mx.Targets {
				t.Run(fmt.Sprintf("%s/O%d/%s", w.Name, level, tgt.Name), func(t *testing.T) {
					t.Parallel()
					img, err := w.Compile(level)
					if err != nil {
						t.Fatal(err)
					}
					opts := core.DefaultOptions()
					opts.Target = tgt.Name
					p, err := core.NewProject(img, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := p.FenceOptimize([]core.Input{w.Input()})
					if err != nil {
						t.Fatal(err)
					}
					want := unoptimizedInstrumentationReport(t, p, tgt, w.Input())
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("report differs from the unoptimized instrumented build:\ngot  %+v\nwant %+v", got, want)
					}
				})
			}
		}
	}
}

// recMem is the external the instrumented reference build calls before
// every access site, with the site ID and the address in its first two
// argument registers. It forwards the access to the recorder.
const recMem = "__polynima_recmem"

// instrument inserts a recMem call before every original-program memory
// access site (loads, stores, atomics) of the module: the instrumentation
// the recorder was fed through before the VM's access hook replaced it.
func instrument(m *ir.Module) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Insts); i++ {
				v := b.Insts[i]
				if v.SiteID == 0 {
					continue
				}
				switch v.Op {
				case ir.OpLoad, ir.OpStore, ir.OpAtomicRMW, ir.OpCmpXchg:
				default:
					continue
				}
				id := f.NewValue(ir.OpConst)
				id.Const = int64(v.SiteID)
				call := f.NewValue(ir.OpCallExt)
				call.ExtName = recMem
				call.SetArgs(id, v.Args[0])
				b.InsertBefore(id, i)
				b.InsertBefore(call, i+1)
				i += 2
			}
		}
	}
}

// unoptimizedInstrumentationReport is FenceOptimize with the old recording:
// instrument the module lifted straight from the graph, lower it, record
// one run through the recMem external, then analyze a second, optimized
// lift of the same graph.
func unoptimizedInstrumentationReport(t *testing.T, p *core.Project, tgt *mx.Target, in core.Input) *spindet.Report {
	t.Helper()
	lopts := lifter.Options{InsertFences: true, NaiveAtomics: p.Opts.NaiveAtomics}
	lf, err := lifter.Lift(p.Img, p.Graph, lopts)
	if err != nil {
		t.Fatal(err)
	}
	instrument(lf.Mod)
	res, err := lower.LowerWithOptions(lf, lower.Options{Target: tgt})
	if err != nil {
		t.Fatal(err)
	}
	rec := spindet.NewRecorder()
	exts := map[string]vm.ExtFunc{}
	for k, v := range in.Exts {
		exts[k] = v
	}
	exts[recMem] = func(m *vm.Machine, t *vm.Thread) error {
		rec.Record(t, int(int64(t.Regs[mx.RDI])), t.Regs[mx.RSI])
		return nil
	}
	m, err := vm.NewWithExts(res.Img, in.Seed, exts)
	if err != nil {
		t.Fatal(err)
	}
	if in.Data != nil {
		m.SetInput(in.Data)
	}
	if r := m.Run(p.Opts.Fuel); r.Fault != nil {
		t.Fatalf("unoptimized instrumented run: %v", r.Fault)
	}
	lf2, err := lifter.Lift(p.Img, p.Graph, lopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Run(lf2.Mod, opt.Options{}); err != nil {
		t.Fatal(err)
	}
	return spindet.Analyze(lf2.Mod, rec.Recording())
}

// TestTraceEntriesMatchCallbackAnalysis pins the one run of the original
// binary per input: for every corpus image, the guest entries the trace
// session records, which PruneCallbacks then reuses without running
// anything, equal the standalone callback analysis's set.
func TestTraceEntriesMatchCallbackAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	images, multi := 0, 0
	for _, w := range workloads.All() {
		for _, level := range []int{0, 2} {
			img, err := w.Compile(level)
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.New()
			o := core.DefaultOptions()
			o.NoFuncCache = true
			o.Obs = tr
			p, err := core.NewProject(img, o)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Trace([]core.Input{w.Input()})
			if err != nil {
				t.Fatalf("%s/O%d: trace: %v", w.Name, level, err)
			}
			if err := p.PruneCallbacks([]core.Input{w.Input()}); err != nil {
				t.Fatalf("%s/O%d: prune: %v", w.Name, level, err)
			}
			args := map[string]any{}
			for _, ev := range tr.Events() {
				if ev.Name == "prune-callbacks" {
					for _, a := range ev.Args {
						args[a.Key] = a.Val
					}
				}
			}
			if args["runs"] != 0 || args["entries"] != len(res.Entries) {
				t.Errorf("%s/O%d: prune after trace recorded %v, want runs 0 and entries %d",
					w.Name, level, args, len(res.Entries))
			}
			in := w.Input()
			alone, err := tracer.Entries(img, []tracer.Run{{Input: in.Data, Seed: in.Seed, Exts: in.Exts}}, o.Fuel, nil)
			if err != nil {
				t.Fatalf("%s/O%d: standalone analysis: %v", w.Name, level, err)
			}
			if !reflect.DeepEqual(res.Entries, alone.Entries) {
				t.Errorf("%s/O%d: trace session entries %#x, standalone %#x",
					w.Name, level, res.Entries, alone.Entries)
			}
			images++
			if len(res.Entries) > 1 {
				multi++
			}
		}
	}
	t.Logf("%d images; %d entered at more than one function", images, multi)
}

// TestLightFTPExploitChangesOutput demonstrates the CVE-2023-24042 race:
// the exploit script makes the handler list the USER-overwritten path.
func TestLightFTPExploitChangesOutput(t *testing.T) {
	w := workloads.ByName("lightftp_like")
	img, err := w.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	in := w.Input()
	in.Data = workloads.LightFTPExploit()
	m, err := vm.NewWithExts(img, in.Seed, in.Exts)
	if err != nil {
		t.Fatal(err)
	}
	m.SetInput(in.Data)
	res := m.Run(500_000_000)
	if res.Fault != nil {
		t.Fatal(res.Fault)
	}
	want := "150\n331\nLIST:<file:/etc/passwd>\n221\n"
	if res.Output != want {
		t.Fatalf("exploit output %q, want %q", res.Output, want)
	}
}
