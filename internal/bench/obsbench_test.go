package bench

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/mx"
	"repro/internal/obs"
	"repro/internal/vm"
)

// obsBenchEntries collects the latest measurement per (name, instrumented)
// variant; TestMain (pipebench_test.go) serializes them to BENCH_obs.json
// after the benchmarks run.
var (
	obsBenchMu      sync.Mutex
	obsBenchEntries = map[string]ObsBenchEntry{}
)

func recordObsBench(e ObsBenchEntry) {
	obsBenchMu.Lock()
	defer obsBenchMu.Unlock()
	key := e.Name
	if e.Instrumented {
		key += "/instrumented"
	}
	// testing.B re-runs each benchmark with increasing b.N; keep only the
	// final (largest, most precise) measurement per variant.
	obsBenchEntries[key] = e
}

// obsStepFuel is the guest-instruction budget per step-loop run; the loop is
// infinite, so every run retires exactly this many instructions.
const obsStepFuel = 1_000_000

// obsStepLoopImage is the step-loop benchmark program (ALU ops, indexed
// store+load, call/ret, taken branch); its counters-off row in
// BENCH_obs.json is the VM's fast-loop throughput.
func obsStepLoopImage(tb testing.TB) *image.Image {
	tb.Helper()
	b := asm.NewBuilder("obssteploop")
	b.BSS("buf", 4096)
	b.Entry("main")
	b.Label("main")
	b.MovSym(mx.RBX, "buf")
	b.MovRI(mx.RCX, 0)
	b.MovRI(mx.RSI, 0)
	b.Label("loop")
	b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RCX, Imm: 1})
	b.I(mx.Inst{Op: mx.ANDRI, Dst: mx.RCX, Imm: 255})
	b.I(mx.Inst{Op: mx.STOREIDX64, Dst: mx.RSI, Base: mx.RBX, Idx: mx.RCX, Scale: 8})
	b.I(mx.Inst{Op: mx.LOADIDX64, Dst: mx.RDX, Base: mx.RBX, Idx: mx.RCX, Scale: 8})
	b.I(mx.Inst{Op: mx.ADDRR, Dst: mx.RSI, Src: mx.RDX})
	b.Call("leaf")
	b.I(mx.Inst{Op: mx.TESTRR, Dst: mx.RCX, Src: mx.RCX})
	b.Jcc(mx.CondNS, "loop") // rcx is in [0,255], so SF is clear: always taken
	b.Jmp("loop")
	b.Label("leaf")
	b.I(mx.Inst{Op: mx.XORRI, Dst: mx.RAX, Imm: 1})
	b.Ret()
	img, _, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

// runObsStepLoop executes the hot loop until fuel exhaustion, with machine
// counters on or off, and returns the retired count and wall-clock time.
func runObsStepLoop(tb testing.TB, img *image.Image, counters bool) (uint64, time.Duration) {
	m, err := vm.New(img, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if counters {
		m.EnableCounters()
	}
	start := time.Now()
	res := m.Run(obsStepFuel)
	elapsed := time.Since(start)
	if res.Fault == nil || !strings.Contains(res.Fault.Reason, "fuel exhausted") {
		tb.Fatalf("expected fuel exhaustion, got fault=%v exit=%d", res.Fault, res.ExitCode)
	}
	if counters {
		if c := m.Counters(); c == nil || c.Insts != res.Insts {
			tb.Fatalf("counter insts mismatch: counters=%+v result insts=%d", c, res.Insts)
		}
	}
	return res.Insts, elapsed
}

// BenchmarkObsStepLoop is the observability differential for guest
// execution: the identical hot loop with machine counters off (the VM's
// fast loop, which has no counter checks) and on (the per-step loop). The
// ratio is BENCH_obs.json's "StepLoop" overhead.
func BenchmarkObsStepLoop(b *testing.B) {
	img := obsStepLoopImage(b)
	for _, variant := range []struct {
		name     string
		counters bool
	}{{"off", false}, {"counters", true}} {
		b.Run(variant.name, func(b *testing.B) {
			var insts uint64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				n, d := runObsStepLoop(b, img, variant.counters)
				insts += n
				elapsed += d
			}
			ips := float64(insts) / elapsed.Seconds()
			b.ReportMetric(ips, "insts/s")
			recordObsBench(ObsBenchEntry{
				Name:         "StepLoop",
				Instrumented: variant.counters,
				Seconds:      elapsed.Seconds() / float64(b.N),
				Insts:        insts,
				InstsPerSec:  ips,
			})
		})
	}
}

// BenchmarkObsRecompile is the observability differential for the pipeline:
// a full cold recompile (function cache off, so every function lifts and
// optimizes) with span tracing off and on. Each iteration builds a fresh
// project — and, when instrumented, a fresh tracer — so both variants do
// identical work and the tracer cost includes event buffering.
func BenchmarkObsRecompile(b *testing.B) {
	img := pipeBenchImage(b)
	for _, variant := range []struct {
		name  string
		spans bool
	}{{"off", false}, {"spans", true}} {
		b.Run(variant.name, func(b *testing.B) {
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				o := core.DefaultOptions()
				o.NoFuncCache = true
				if variant.spans {
					o.Obs = obs.New()
				}
				p, err := core.NewProject(img, o)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.Recompile(); err != nil {
					b.Fatal(err)
				}
				if variant.spans && o.Obs.OpenSpans() != 0 {
					b.Fatalf("unbalanced spans: %d still open", o.Obs.OpenSpans())
				}
			}
			elapsed := time.Since(start)
			recordObsBench(ObsBenchEntry{
				Name:         "Recompile",
				Instrumented: variant.spans,
				Seconds:      elapsed.Seconds() / float64(b.N),
			})
		})
	}
}

func TestObsBenchReportOverheads(t *testing.T) {
	r := NewObsBenchReport([]ObsBenchEntry{
		{Name: "StepLoop", Instrumented: true, Seconds: 1.1},
		{Name: "StepLoop", Instrumented: false, Seconds: 1.0},
		{Name: "Orphan", Instrumented: true, Seconds: 0.5}, // no baseline
	})
	if got := len(r.Overheads); got != 1 {
		t.Fatalf("overheads = %v, want 1 entry", r.Overheads)
	}
	if o := r.Overheads["StepLoop"]; math.Abs(o-1.1) > 1e-12 {
		t.Errorf("overhead = %v, want 1.1", o)
	}
	// Deterministic ordering: by name, then uninstrumented first.
	for i := 1; i < len(r.Benchmarks); i++ {
		a, b := r.Benchmarks[i-1], r.Benchmarks[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Instrumented && !b.Instrumented) {
			t.Fatalf("benchmarks not sorted: %v before %v", a, b)
		}
	}
}
