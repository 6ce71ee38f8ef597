package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/image"
	"repro/internal/mx"
	"repro/internal/vm"
)

// obsStepFuel is the guest-instruction budget per step-loop run; the loop is
// infinite, so every run retires exactly this many instructions.
const obsStepFuel = 1_000_000

// obsStepLoopImage is the step-loop benchmark program (ALU ops, indexed
// store+load, call/ret, taken branch).
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
// fast loop, which has no counter checks) and on (the per-step loop). Each
// variant reports its guest throughput as insts/s.
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
			b.ReportMetric(float64(insts)/elapsed.Seconds(), "insts/s")
		})
	}
}
