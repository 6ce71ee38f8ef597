package vm_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/image"
	"repro/internal/mx"
	"repro/internal/vm"
)

func build(t *testing.T, f func(b *asm.Builder)) *image.Image {
	t.Helper()
	b := asm.NewBuilder("t")
	f(b)
	img, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func run(t *testing.T, img *image.Image) vm.Result {
	t.Helper()
	m, err := vm.New(img, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run(50_000_000)
}

func mustExit(t *testing.T, res vm.Result, code int) {
	t.Helper()
	if res.Fault != nil {
		t.Fatalf("fault: %v (output %q)", res.Fault, res.Output)
	}
	if res.ExitCode != code {
		t.Fatalf("exit code %d, want %d (output %q)", res.ExitCode, code, res.Output)
	}
}

func TestArithmeticAndExit(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("main")
		b.Label("main")
		b.MovRI(mx.RAX, 6)
		b.I(mx.Inst{Op: mx.IMULRI, Dst: mx.RAX, Imm: 7})
		b.MovRR(mx.RDI, mx.RAX)
		b.I(mx.Inst{Op: mx.SUBRI, Dst: mx.RDI, Imm: 2})
		b.CallExt("exit")
	})
	mustExit(t, run(t, img), 40)
}

func TestMainReturnIsExitCode(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("main")
		b.Label("main")
		b.MovRI(mx.RAX, 13)
		b.Ret()
	})
	mustExit(t, run(t, img), 13)
}

func TestCallRetAndStack(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("main")
		b.Label("main")
		b.MovRI(mx.RDI, 20)
		b.Call("double")
		b.MovRR(mx.RDI, mx.RAX)
		b.CallExt("exit")
		b.Label("double")
		b.I(mx.Inst{Op: mx.PUSH, Dst: mx.RBX})
		b.MovRR(mx.RBX, mx.RDI)
		b.I(mx.Inst{Op: mx.ADDRR, Dst: mx.RBX, Src: mx.RBX})
		b.MovRR(mx.RAX, mx.RBX)
		b.I(mx.Inst{Op: mx.POP, Dst: mx.RBX})
		b.Ret()
	})
	mustExit(t, run(t, img), 40)
}

func TestLoopAndBranches(t *testing.T) {
	// sum 1..10 == 55
	img := build(t, func(b *asm.Builder) {
		b.Entry("main")
		b.Label("main")
		b.MovRI(mx.RAX, 0)
		b.MovRI(mx.RCX, 1)
		b.Label("loop")
		b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.RCX, Imm: 10})
		b.Jcc(mx.CondG, "done")
		b.I(mx.Inst{Op: mx.ADDRR, Dst: mx.RAX, Src: mx.RCX})
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RCX, Imm: 1})
		b.Jmp("loop")
		b.Label("done")
		b.MovRR(mx.RDI, mx.RAX)
		b.CallExt("exit")
	})
	mustExit(t, run(t, img), 55)
}

func TestGlobalDataAndBSS(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.DataLabel("g")
		b.DataQuad(100)
		b.BSS("scratch", 64)
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RBX, "g")
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RAX, Base: mx.RBX})
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RAX, Imm: 1})
		b.MovSym(mx.RBX, "scratch")
		b.I(mx.Inst{Op: mx.STORE64, Dst: mx.RAX, Base: mx.RBX})
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.RBX})
		b.CallExt("exit")
	})
	mustExit(t, run(t, img), 101)
}

func TestJumpTable(t *testing.T) {
	// Dispatch on rdi=2 through a jump table in .rodata.
	img := build(t, func(b *asm.Builder) {
		b.RodataLabel("table")
		b.RodataAddr("case0")
		b.RodataAddr("case1")
		b.RodataAddr("case2")
		b.Entry("main")
		b.Label("main")
		b.MovRI(mx.RDI, 2)
		b.MovSym(mx.RBX, "table")
		b.I(mx.Inst{Op: mx.JMPM, Base: mx.RBX, Idx: mx.RDI})
		b.Label("case0")
		b.MovRI(mx.RDI, 10)
		b.Jmp("out")
		b.Label("case1")
		b.MovRI(mx.RDI, 11)
		b.Jmp("out")
		b.Label("case2")
		b.MovRI(mx.RDI, 12)
		b.Label("out")
		b.CallExt("exit")
	})
	mustExit(t, run(t, img), 12)
}

func TestIndirectCallThroughRegister(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RBX, "target")
		b.I(mx.Inst{Op: mx.CALLR, Dst: mx.RBX})
		b.MovRR(mx.RDI, mx.RAX)
		b.CallExt("exit")
		b.Label("target")
		b.MovRI(mx.RAX, 77)
		b.Ret()
	})
	mustExit(t, run(t, img), 77)
}

func TestPrintOutput(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.RodataLabel("msg")
		b.Rodata(append([]byte("hello\n"), 0))
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RDI, "msg")
		b.CallExt("print_str")
		b.MovRI(mx.RDI, 42)
		b.CallExt("print_i64")
		b.MovRI(mx.RDI, 0)
		b.CallExt("exit")
	})
	res := run(t, img)
	mustExit(t, res, 0)
	if res.Output != "hello\n42\n" {
		t.Fatalf("output %q", res.Output)
	}
}

func TestThreadsAtomicCounter(t *testing.T) {
	// 4 threads each lock-add 1000 to a counter; result must be 4000.
	img := build(t, func(b *asm.Builder) {
		b.BSS("counter", 8)
		b.BSS("tids", 64)
		b.Entry("main")
		b.Label("main")
		// spawn 4 threads
		b.MovRI(mx.R12, 0)
		b.Label("spawn")
		b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.R12, Imm: 4})
		b.Jcc(mx.CondGE, "joinloop")
		b.MovSym(mx.RDI, "worker")
		b.MovRI(mx.RSI, 0)
		b.CallExt("thread_create")
		b.MovSym(mx.RBX, "tids")
		b.I(mx.Inst{Op: mx.STOREIDX64, Dst: mx.RAX, Base: mx.RBX, Idx: mx.R12, Scale: 8})
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.R12, Imm: 1})
		b.Jmp("spawn")
		b.Label("joinloop")
		b.MovRI(mx.R12, 0)
		b.Label("join1")
		b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.R12, Imm: 4})
		b.Jcc(mx.CondGE, "report")
		b.MovSym(mx.RBX, "tids")
		b.I(mx.Inst{Op: mx.LOADIDX64, Dst: mx.RDI, Base: mx.RBX, Idx: mx.R12, Scale: 8})
		b.CallExt("thread_join")
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.R12, Imm: 1})
		b.Jmp("join1")
		b.Label("report")
		b.MovSym(mx.RBX, "counter")
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.RBX})
		b.CallExt("exit")

		b.Label("worker")
		b.MovRI(mx.RCX, 0)
		b.MovSym(mx.RBX, "counter")
		b.MovRI(mx.RDX, 1)
		b.Label("wloop")
		b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.RCX, Imm: 1000})
		b.Jcc(mx.CondGE, "wdone")
		b.I(mx.Inst{Op: mx.LOCKADD, Dst: mx.RDX, Base: mx.RBX})
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RCX, Imm: 1})
		b.Jmp("wloop")
		b.Label("wdone")
		b.MovRI(mx.RAX, 0)
		b.Ret()
	})
	mustExit(t, run(t, img), 4000)
}

func TestSpinlockWithCmpxchg(t *testing.T) {
	// Two threads increment a non-atomic counter under a cmpxchg spinlock.
	img := build(t, func(b *asm.Builder) {
		b.BSS("lock", 8)
		b.BSS("count", 8)
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RDI, "worker")
		b.MovRI(mx.RSI, 0)
		b.CallExt("thread_create")
		b.MovRR(mx.R13, mx.RAX)
		b.MovSym(mx.RDI, "worker")
		b.CallExt("thread_create")
		b.MovRR(mx.R14, mx.RAX)
		b.MovRR(mx.RDI, mx.R13)
		b.CallExt("thread_join")
		b.MovRR(mx.RDI, mx.R14)
		b.CallExt("thread_join")
		b.MovSym(mx.RBX, "count")
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.RBX})
		b.CallExt("exit")

		b.Label("worker")
		b.MovRI(mx.R12, 0)
		b.Label("iter")
		b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.R12, Imm: 500})
		b.Jcc(mx.CondGE, "done")
		// acquire: while (!cas(lock, 0, 1)) spin
		b.Label("acquire")
		b.MovRI(mx.RAX, 0)
		b.MovRI(mx.RCX, 1)
		b.MovSym(mx.RBX, "lock")
		b.I(mx.Inst{Op: mx.CMPXCHG, Dst: mx.RCX, Base: mx.RBX})
		b.Jcc(mx.CondNE, "acquire")
		// critical section: count++ (plain, racy without the lock)
		b.MovSym(mx.RBX, "count")
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDX, Base: mx.RBX})
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RDX, Imm: 1})
		b.I(mx.Inst{Op: mx.STORE64, Dst: mx.RDX, Base: mx.RBX})
		// release
		b.MovSym(mx.RBX, "lock")
		b.I(mx.Inst{Op: mx.STOREI64, Base: mx.RBX, Imm: 0})
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.R12, Imm: 1})
		b.Jmp("iter")
		b.Label("done")
		b.MovRI(mx.RAX, 0)
		b.Ret()
	})
	mustExit(t, run(t, img), 1000)
}

func TestQsortCallback(t *testing.T) {
	// Sort 8 quads with a guest comparator, then verify ordering in guest.
	img := build(t, func(b *asm.Builder) {
		b.DataLabel("arr")
		for _, v := range []uint64{5, 3, 8, 1, 9, 2, 7, 4} {
			b.DataQuad(v)
		}
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RDI, "arr")
		b.MovRI(mx.RSI, 8)
		b.MovRI(mx.RDX, 8)
		b.MovSym(mx.RCX, "cmp")
		b.CallExt("qsort")
		// check sorted: fail fast with exit(100+i)
		b.MovRI(mx.R12, 0)
		b.Label("chk")
		b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.R12, Imm: 7})
		b.Jcc(mx.CondGE, "ok")
		b.MovSym(mx.RBX, "arr")
		b.I(mx.Inst{Op: mx.LOADIDX64, Dst: mx.RAX, Base: mx.RBX, Idx: mx.R12, Scale: 8})
		b.MovRR(mx.R13, mx.R12)
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.R13, Imm: 1})
		b.I(mx.Inst{Op: mx.LOADIDX64, Dst: mx.RCX, Base: mx.RBX, Idx: mx.R13, Scale: 8})
		b.I(mx.Inst{Op: mx.CMPRR, Dst: mx.RAX, Src: mx.RCX})
		b.Jcc(mx.CondG, "bad")
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.R12, Imm: 1})
		b.Jmp("chk")
		b.Label("bad")
		b.MovRI(mx.RDI, 100)
		b.CallExt("exit")
		b.Label("ok")
		// exit(first + last) = 1 + 9 = 10
		b.MovSym(mx.RBX, "arr")
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.RBX})
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RAX, Base: mx.RBX, Disp: 56})
		b.I(mx.Inst{Op: mx.ADDRR, Dst: mx.RDI, Src: mx.RAX})
		b.CallExt("exit")

		b.Label("cmp")
		// return *(i64*)a - *(i64*)b
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RAX, Base: mx.RDI})
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RCX, Base: mx.RSI})
		b.I(mx.Inst{Op: mx.SUBRR, Dst: mx.RAX, Src: mx.RCX})
		b.Ret()
	})
	mustExit(t, run(t, img), 10)
}

func TestOmpParallelFor(t *testing.T) {
	// Workers atomically add their chunk sums of [0,100); total = 4950.
	img := build(t, func(b *asm.Builder) {
		b.BSS("total", 8)
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RDI, "body")
		b.MovRI(mx.RSI, 0)
		b.MovRI(mx.RDX, 100)
		b.MovRI(mx.RCX, 0)
		b.MovRI(mx.R8, 4)
		b.CallExt("omp_parallel_for")
		b.MovSym(mx.RBX, "total")
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.RBX})
		b.CallExt("exit")

		b.Label("body") // body(lo, hi, arg)
		b.MovRI(mx.RAX, 0)
		b.Label("bl")
		b.I(mx.Inst{Op: mx.CMPRR, Dst: mx.RDI, Src: mx.RSI})
		b.Jcc(mx.CondGE, "bdone")
		b.I(mx.Inst{Op: mx.ADDRR, Dst: mx.RAX, Src: mx.RDI})
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RDI, Imm: 1})
		b.Jmp("bl")
		b.Label("bdone")
		b.MovSym(mx.RBX, "total")
		b.I(mx.Inst{Op: mx.LOCKADD, Dst: mx.RAX, Base: mx.RBX})
		b.MovRI(mx.RAX, 0)
		b.Ret()
	})
	mustExit(t, run(t, img), 4950)
}

func TestMutexProtectsCounter(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.BSS("mu", 8)
		b.BSS("n", 8)
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RDI, "w")
		b.MovRI(mx.RSI, 0)
		b.CallExt("thread_create")
		b.MovRR(mx.R13, mx.RAX)
		b.MovSym(mx.RDI, "w")
		b.CallExt("thread_create")
		b.MovRR(mx.R14, mx.RAX)
		b.MovRR(mx.RDI, mx.R13)
		b.CallExt("thread_join")
		b.MovRR(mx.RDI, mx.R14)
		b.CallExt("thread_join")
		b.MovSym(mx.RBX, "n")
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.RBX})
		b.CallExt("exit")

		b.Label("w")
		b.MovRI(mx.R12, 0)
		b.Label("l")
		b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.R12, Imm: 300})
		b.Jcc(mx.CondGE, "e")
		b.MovSym(mx.RDI, "mu")
		b.CallExt("mutex_lock")
		b.MovSym(mx.RBX, "n")
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDX, Base: mx.RBX})
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RDX, Imm: 1})
		b.I(mx.Inst{Op: mx.STORE64, Dst: mx.RDX, Base: mx.RBX})
		b.MovSym(mx.RDI, "mu")
		b.CallExt("mutex_unlock")
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.R12, Imm: 1})
		b.Jmp("l")
		b.Label("e")
		b.MovRI(mx.RAX, 0)
		b.Ret()
	})
	mustExit(t, run(t, img), 600)
}

func TestTLSIsPerThread(t *testing.T) {
	// Each thread writes its arg to TLS[0] then reads it back after yielding.
	img := build(t, func(b *asm.Builder) {
		b.SetTLSSize(64)
		b.BSS("sum", 8)
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RDI, "w")
		b.MovRI(mx.RSI, 5)
		b.CallExt("thread_create")
		b.MovRR(mx.R13, mx.RAX)
		b.MovSym(mx.RDI, "w")
		b.MovRI(mx.RSI, 9)
		b.CallExt("thread_create")
		b.MovRR(mx.R14, mx.RAX)
		b.MovRR(mx.RDI, mx.R13)
		b.CallExt("thread_join")
		b.MovRR(mx.RDI, mx.R14)
		b.CallExt("thread_join")
		b.MovSym(mx.RBX, "sum")
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.RBX})
		b.CallExt("exit")

		b.Label("w") // arg in rdi
		b.I(mx.Inst{Op: mx.TLSBASE, Dst: mx.RBX})
		b.I(mx.Inst{Op: mx.STORE64, Dst: mx.RDI, Base: mx.RBX})
		b.CallExt("sched_yield")
		b.I(mx.Inst{Op: mx.TLSBASE, Dst: mx.RBX})
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RAX, Base: mx.RBX})
		b.MovSym(mx.RCX, "sum")
		b.I(mx.Inst{Op: mx.LOCKADD, Dst: mx.RAX, Base: mx.RCX})
		b.MovRI(mx.RAX, 0)
		b.Ret()
	})
	mustExit(t, run(t, img), 14)
}

func TestVectorOps(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.DataLabel("v1")
		for _, v := range []uint64{1, 2, 3, 4} {
			b.DataQuad(v)
		}
		b.DataLabel("v2")
		for _, v := range []uint64{10, 20, 30, 40} {
			b.DataQuad(v)
		}
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RBX, "v1")
		b.I(mx.Inst{Op: mx.VLOAD, Dst: 0, Base: mx.RBX})
		b.MovSym(mx.RBX, "v2")
		b.I(mx.Inst{Op: mx.VLOAD, Dst: 1, Base: mx.RBX})
		b.I(mx.Inst{Op: mx.VADD, Dst: 0, Src: 1})
		b.I(mx.Inst{Op: mx.VHADD, Dst: mx.RDI, Src: 0})
		b.CallExt("exit") // (1+10)+(2+20)+(3+30)+(4+40) = 110
	})
	mustExit(t, run(t, img), 110)
}

func TestFaults(t *testing.T) {
	cases := []struct {
		name string
		prog func(b *asm.Builder)
		want string
	}{
		{"unmapped load", func(b *asm.Builder) {
			b.Entry("main")
			b.Label("main")
			b.MovRI(mx.RBX, 0xdead0000)
			b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RAX, Base: mx.RBX})
			b.Ret()
		}, "unmapped"},
		{"div by zero", func(b *asm.Builder) {
			b.Entry("main")
			b.Label("main")
			b.MovRI(mx.RAX, 7)
			b.MovRI(mx.RCX, 0)
			b.I(mx.Inst{Op: mx.DIVRR, Dst: mx.RAX, Src: mx.RCX})
			b.Ret()
		}, "divide by zero"},
		{"syscall", func(b *asm.Builder) {
			b.Entry("main")
			b.Label("main")
			b.I(mx.Inst{Op: mx.SYSCALL})
			b.Ret()
		}, "syscall"},
		{"ud2", func(b *asm.Builder) {
			b.Entry("main")
			b.Label("main")
			b.I(mx.Inst{Op: mx.UD2})
		}, "ud2"},
		{"wild jump", func(b *asm.Builder) {
			b.Entry("main")
			b.Label("main")
			b.MovRI(mx.RBX, 0x1234)
			b.I(mx.Inst{Op: mx.JMPR, Dst: mx.RBX})
		}, "fetch"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := run(t, build(t, c.prog))
			if res.Fault == nil {
				t.Fatalf("no fault; exit=%d", res.ExitCode)
			}
			if !strings.Contains(res.Fault.Reason, c.want) {
				t.Fatalf("fault %q does not mention %q", res.Fault.Reason, c.want)
			}
		})
	}
}

func TestUnresolvedImport(t *testing.T) {
	b := asm.NewBuilder("t")
	b.Entry("main")
	b.Label("main")
	b.CallExt("no_such_function")
	b.Ret()
	img, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.New(img, 1); err == nil {
		t.Fatal("expected unresolved import error")
	}
}

func TestDeterminism(t *testing.T) {
	// Same seed, same interleaving-sensitive result; we just require the
	// cycle counts to be identical across runs.
	img := build(t, func(b *asm.Builder) {
		b.BSS("counter", 8)
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RDI, "w")
		b.MovRI(mx.RSI, 0)
		b.CallExt("thread_create")
		b.MovRR(mx.RDI, mx.RAX)
		b.CallExt("thread_join")
		b.MovRI(mx.RDI, 0)
		b.CallExt("exit")
		b.Label("w")
		b.MovRI(mx.RCX, 0)
		b.Label("l")
		b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.RCX, Imm: 100})
		b.Jcc(mx.CondGE, "d")
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RCX, Imm: 1})
		b.Jmp("l")
		b.Label("d")
		b.Ret()
	})
	r1 := run(t, img)
	r2 := run(t, img)
	if r1.Cycles != r2.Cycles || r1.Insts != r2.Insts {
		t.Fatalf("nondeterministic: %v vs %v", r1, r2)
	}
}

func TestInputExternals(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.BSS("buf", 16)
		b.Entry("main")
		b.Label("main")
		b.MovSym(mx.RDI, "buf")
		b.MovRI(mx.RSI, 16)
		b.CallExt("input_read")
		b.MovRR(mx.R12, mx.RAX) // n
		b.MovSym(mx.RBX, "buf")
		b.I(mx.Inst{Op: mx.LOAD8, Dst: mx.RDI, Base: mx.RBX})
		b.I(mx.Inst{Op: mx.ADDRR, Dst: mx.RDI, Src: mx.R12})
		b.CallExt("exit")
	})
	m, err := vm.New(img, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.SetInput([]byte("AB"))
	res := m.Run(1_000_000)
	mustExit(t, res, 'A'+2)
}

func TestMallocFree(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("main")
		b.Label("main")
		b.MovRI(mx.RDI, 64)
		b.CallExt("malloc")
		b.MovRR(mx.R12, mx.RAX)
		b.I(mx.Inst{Op: mx.STOREI64, Base: mx.R12, Imm: 99})
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.R13, Base: mx.R12})
		b.MovRR(mx.RDI, mx.R12)
		b.CallExt("free")
		b.MovRR(mx.RDI, mx.R13)
		b.CallExt("exit")
	})
	mustExit(t, run(t, img), 99)
}

// TestCallocOverflowFaults: a calloc whose size wraps, in count*size or in
// the allocation header, faults instead of returning a short block.
func TestCallocOverflowFaults(t *testing.T) {
	for _, c := range []struct{ count, size int64 }{
		{1 << 33, 1 << 31}, // count*size wraps to 0
		{-1, 3},            // wraps to a small positive size
		{1, -8},            // fits, but the header wraps it
	} {
		img := build(t, func(b *asm.Builder) {
			b.Entry("main")
			b.Label("main")
			b.MovRI(mx.RDI, c.count)
			b.MovRI(mx.RSI, c.size)
			b.CallExt("calloc")
			b.MovRI(mx.RDI, 0)
			b.CallExt("exit")
		})
		res := run(t, img)
		if res.Fault == nil || !strings.Contains(res.Fault.Reason, "calloc") {
			t.Errorf("calloc(%#x, %#x): fault %v, want a calloc size fault", uint64(c.count), uint64(c.size), res.Fault)
		}
	}
}

// TestCallocZeroesInGuestMemory: calloc clears a recycled block, and a large
// block costs no host buffer of its size (reserved pages stay unmaterialized).
func TestCallocZeroesInGuestMemory(t *testing.T) {
	img := build(t, func(b *asm.Builder) {
		b.Entry("main")
		b.Label("main")
		// p = malloc(64); dirty p[8]; free(p).
		b.MovRI(mx.RDI, 64)
		b.CallExt("malloc")
		b.MovRR(mx.R12, mx.RAX)
		b.I(mx.Inst{Op: mx.STOREI64, Base: mx.R12, Disp: 8, Imm: 0x55})
		b.MovRR(mx.RDI, mx.R12)
		b.CallExt("free")
		// q = calloc(8, 8) recycles p's block: print q-p, keep q[8].
		b.MovRI(mx.RDI, 8)
		b.MovRI(mx.RSI, 8)
		b.CallExt("calloc")
		b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.R13, Base: mx.RAX, Disp: 8})
		b.MovRR(mx.RDI, mx.RAX)
		b.I(mx.Inst{Op: mx.SUBRR, Dst: mx.RDI, Src: mx.R12})
		b.CallExt("print_i64")
		// r = calloc(1<<26, 1); r[last] must read zero too.
		b.MovRI(mx.RDI, 1<<26)
		b.MovRI(mx.RSI, 1)
		b.CallExt("calloc")
		b.I(mx.Inst{Op: mx.LOAD8, Dst: mx.R14, Base: mx.RAX, Disp: 1<<26 - 1})
		b.MovRR(mx.RDI, mx.R13)
		b.I(mx.Inst{Op: mx.ADDRR, Dst: mx.RDI, Src: mx.R14})
		b.CallExt("exit")
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := run(t, img)
	runtime.ReadMemStats(&after)
	mustExit(t, res, 0)
	if res.Output != "0\n" {
		t.Fatalf("calloc did not recycle the freed block: q-p = %q", res.Output)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("a 64 MiB calloc allocated %d host bytes", grew)
	}
}

// TestMallocOverflowFaults: a malloc size whose header or rounding wraps
// faults, as calloc's does, instead of returning a block the next
// allocation overlaps.
func TestMallocOverflowFaults(t *testing.T) {
	for _, size := range []int64{-8, -16, -31} {
		img := build(t, func(b *asm.Builder) {
			b.Entry("main")
			b.Label("main")
			b.MovRI(mx.RDI, size)
			b.CallExt("malloc")
			b.MovRI(mx.RDI, 0)
			b.CallExt("exit")
		})
		res := run(t, img)
		if res.Fault == nil || !strings.Contains(res.Fault.Reason, "malloc") {
			t.Errorf("malloc(%#x): fault %v, want a malloc size fault", uint64(size), res.Fault)
		}
	}
}

// TestMallocStaysInHeap: the heap ends where thread 0's TLS block begins,
// 256 MiB above its base. A block that would cross that line faults, in
// malloc and calloc alike, instead of returning memory that aliases
// [TLSBASE]; blocks that fit still succeed and leave the TLS block alone.
func TestMallocStaysInHeap(t *testing.T) {
	const mib = 1 << 20
	// alias mallocs size bytes, stores 0x77 where the TLS block would start
	// if the block covered it, and exits with the TLS block's first byte.
	alias := func(ext string, size int64) *image.Image {
		return build(t, func(b *asm.Builder) {
			b.SetTLSSize(64)
			b.Entry("main")
			b.Label("main")
			if ext == "calloc" {
				b.MovRI(mx.RDI, 1)
				b.MovRI(mx.RSI, size)
			} else {
				b.MovRI(mx.RDI, size)
			}
			b.CallExt(ext)
			b.MovRI(mx.RCX, 0x77)
			b.I(mx.Inst{Op: mx.STORE8, Dst: mx.RCX, Base: mx.RAX, Disp: 1<<28 - 16})
			b.I(mx.Inst{Op: mx.TLSBASE, Dst: mx.RBX})
			b.I(mx.Inst{Op: mx.LOAD8, Dst: mx.RDI, Base: mx.RBX})
			b.CallExt("exit")
		})
	}
	for _, ext := range []string{"malloc", "calloc"} {
		res := run(t, alias(ext, 512*mib))
		if res.Fault == nil || !strings.Contains(res.Fault.Reason, ext+"(") ||
			!strings.Contains(res.Fault.Reason, "heap exhausted") {
			t.Errorf("%s(512 MiB): exit %d, fault %v; want a heap-exhausted fault",
				ext, res.ExitCode, res.Fault)
		}
	}

	// Blocks that fit: 200 MiB, then 64 bytes, each written at its last
	// quad, leave [TLSBASE] zero; a further 100 MiB no longer fits.
	fits := func(third bool) *image.Image {
		return build(t, func(b *asm.Builder) {
			b.SetTLSSize(64)
			b.Entry("main")
			b.Label("main")
			for _, size := range []int64{200 * mib, 64} {
				b.MovRI(mx.RDI, size)
				b.CallExt("malloc")
				b.MovRI(mx.RCX, -1)
				b.I(mx.Inst{Op: mx.STORE64, Dst: mx.RCX, Base: mx.RAX, Disp: int32(size - 8)})
			}
			if third {
				b.MovRI(mx.RDI, 100*mib)
				b.CallExt("malloc")
			}
			b.I(mx.Inst{Op: mx.TLSBASE, Dst: mx.RBX})
			b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.RBX})
			b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RDI, Imm: 5})
			b.CallExt("exit")
		})
	}
	mustExit(t, run(t, fits(false)), 5)
	if res := run(t, fits(true)); res.Fault == nil || !strings.Contains(res.Fault.Reason, "heap exhausted") {
		t.Errorf("malloc past the heap's end: exit %d, fault %v; want a heap-exhausted fault",
			res.ExitCode, res.Fault)
	}
}

// bulkMiB is the block size of the bulk-external tests: large enough that a
// host buffer of the guest's size shows in TotalAlloc, small enough to run
// under the race detector.
const bulkMiB = 64

// TestBulkExternalsAllocateNoHostBuffer runs memset, memcpy and qsort's
// swap over 64 MiB blocks. On reserved, unmaterialized blocks a zero
// memset, a copy and a swap allocate (almost) nothing; a non-zero memset and
// a copy of its result allocate the pages they fill and no buffer on top.
func TestBulkExternalsAllocateNoHostBuffer(t *testing.T) {
	const size = bulkMiB << 20
	img := build(t, func(b *asm.Builder) {
		b.Entry("main")
		b.Label("main")
		b.MovRI(mx.RDI, size)
		b.CallExt("malloc")
		b.MovRR(mx.R12, mx.RAX)
		b.MovRI(mx.RDI, size)
		b.CallExt("malloc")
		b.MovRR(mx.R13, mx.RAX)
		b.MovRR(mx.RDI, mx.R12)
		b.MovRI(mx.RSI, 0)
		b.MovRI(mx.RDX, size)
		b.CallExt("memset")
		b.MovRR(mx.RDI, mx.R13)
		b.MovRR(mx.RSI, mx.R12)
		b.MovRI(mx.RDX, size)
		b.CallExt("memcpy")
		// qsort(p, 2, size/2, cmp): cmp says greater, so the two halves
		// of p swap.
		b.MovRR(mx.RDI, mx.R12)
		b.MovRI(mx.RSI, 2)
		b.MovRI(mx.RDX, size/2)
		b.MovSym(mx.RCX, "greater")
		b.CallExt("qsort")
		b.MovRI(mx.RDI, 0)
		b.CallExt("exit")
		b.Label("greater")
		b.MovRI(mx.RAX, 1)
		b.Ret()
	})
	var res vm.Result
	if grew := allocDuring(func() { res = run(t, img) }); grew > 16<<20 {
		t.Errorf("zero memset, memcpy and swap over %d MiB blocks allocated %d host bytes", bulkMiB, grew)
	}
	mustExit(t, res, 0)

	img = build(t, func(b *asm.Builder) {
		b.Entry("main")
		b.Label("main")
		b.MovRI(mx.RDI, size)
		b.CallExt("malloc")
		b.MovRR(mx.R12, mx.RAX)
		b.MovRI(mx.RDI, size)
		b.CallExt("malloc")
		b.MovRR(mx.R13, mx.RAX)
		b.MovRR(mx.RDI, mx.R12)
		b.MovRI(mx.RSI, 0xab)
		b.MovRI(mx.RDX, size)
		b.CallExt("memset")
		b.MovRR(mx.RDI, mx.R13)
		b.MovRR(mx.RSI, mx.R12)
		b.MovRI(mx.RDX, size)
		b.CallExt("memcpy")
		b.I(mx.Inst{Op: mx.LOAD8, Dst: mx.RDI, Base: mx.R13, Disp: size - 1})
		b.CallExt("exit")
	})
	grew := allocDuring(func() { res = run(t, img) })
	mustExit(t, res, 0xab)
	if grew > 2*size+16<<20 {
		t.Errorf("memset and memcpy of %d MiB allocated %d host bytes, want the %d MiB of pages they fill plus < 16 MiB",
			bulkMiB, grew, 2*bulkMiB)
	}
}

// TestBulkExternalsCheckRanges: memset, memcpy, write and qsort fault on a
// range that runs past their block, before allocating anything, and memset
// no longer maps what it writes.
func TestBulkExternalsCheckRanges(t *testing.T) {
	const size = bulkMiB << 20
	for _, c := range []struct {
		name string
		call func(b *asm.Builder)
		want string
	}{
		{"memset", func(b *asm.Builder) {
			b.MovRR(mx.RDI, mx.R12)
			b.MovRI(mx.RSI, 1)
			b.MovRI(mx.RDX, size)
			b.CallExt("memset")
		}, "memset destination unmapped"},
		{"memcpy source", func(b *asm.Builder) {
			b.MovRR(mx.RDI, mx.R12)
			b.MovRR(mx.RSI, mx.R12)
			b.MovRI(mx.RDX, size)
			b.CallExt("memcpy")
		}, "memcpy source unmapped"},
		{"memcpy destination", func(b *asm.Builder) {
			b.MovRI(mx.RDI, 0x7000_0000_0000)
			b.MovRR(mx.RSI, mx.R12)
			b.MovRI(mx.RDX, 8)
			b.CallExt("memcpy")
		}, "memcpy destination unmapped"},
		{"write", func(b *asm.Builder) {
			b.MovRR(mx.RDI, mx.R12)
			b.MovRI(mx.RSI, size)
			b.CallExt("write")
		}, "bad buffer"},
		{"qsort", func(b *asm.Builder) {
			b.MovRR(mx.RDI, mx.R12)
			b.MovRI(mx.RSI, 2)
			b.MovRI(mx.RDX, size)
			b.MovSym(mx.RCX, "greater")
			b.CallExt("qsort")
		}, "qsort: unmapped element"},
	} {
		img := build(t, func(b *asm.Builder) {
			b.Entry("main")
			b.Label("main")
			b.MovRI(mx.RDI, 64)
			b.CallExt("malloc")
			b.MovRR(mx.R12, mx.RAX)
			c.call(b)
			b.MovRI(mx.RDI, 0)
			b.CallExt("exit")
			b.Label("greater")
			b.MovRI(mx.RAX, 1)
			b.Ret()
		})
		var res vm.Result
		grew := allocDuring(func() { res = run(t, img) })
		if res.Fault == nil || !strings.Contains(res.Fault.Reason, c.want) {
			t.Errorf("%s: fault %v, want %q", c.name, res.Fault, c.want)
		}
		if grew > 16<<20 {
			t.Errorf("%s: a rejected %d MiB range allocated %d host bytes", c.name, bulkMiB, grew)
		}
	}
}

// TestMemcpyOverlapAndWrite: memcpy over overlapping ranges gives memmove's
// result in both directions, and write copies a buffer to the output,
// reserved (never written) bytes as zeros.
func TestMemcpyOverlapAndWrite(t *testing.T) {
	const text = "0123456789abcdef"
	img := build(t, func(b *asm.Builder) {
		b.Entry("main")
		b.Label("main")
		b.MovRI(mx.RDI, 32)
		b.CallExt("malloc")
		b.MovRR(mx.R12, mx.RAX)
		b.MovRR(mx.RDI, mx.R12)
		b.MovSym(mx.RSI, "text")
		b.MovRI(mx.RDX, 16)
		b.CallExt("memcpy")
		// memmove(p+2, p, 10), then memmove(p+11, p+12, 4).
		b.MovRR(mx.RDI, mx.R12)
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RDI, Imm: 2})
		b.MovRR(mx.RSI, mx.R12)
		b.MovRI(mx.RDX, 10)
		b.CallExt("memcpy")
		b.MovRR(mx.RDI, mx.R12)
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RDI, Imm: 11})
		b.MovRR(mx.RSI, mx.R12)
		b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.RSI, Imm: 12})
		b.MovRI(mx.RDX, 4)
		b.CallExt("memcpy")
		b.MovRR(mx.RDI, mx.R12)
		b.MovRI(mx.RSI, 20)
		b.CallExt("write")
		b.MovRI(mx.RDI, 0)
		b.CallExt("exit")
		b.RodataLabel("text")
		b.Rodata([]byte(text))
	})
	want := []byte(text + "\x00\x00\x00\x00")
	copy(want[2:12], want[0:10])
	copy(want[11:15], want[12:16])
	res := run(t, img)
	mustExit(t, res, 0)
	if res.Output != string(want) {
		t.Fatalf("output %q, want %q", res.Output, want)
	}
}

// allocDuring returns the bytes the Go heap allocated while f ran.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
