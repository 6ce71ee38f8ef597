package vm

import (
	"sync"

	"repro/internal/mx"
)

// This file implements the machine-counter side of the observability layer
// (internal/obs): hardware-level event counts for one Machine. Counted runs
// execute in the per-step loop (stepBatchCounted, chosen once per batch),
// so the fast loop itself has no counter checks; the remaining sites
// (scheduler preemptions, Memory's TLB) sit behind a nil check. Enable with
// Machine.EnableCounters (or machine-wide via CounterSinkDefault);
// everything counted is derived from the deterministic execution, so for a
// fixed image, input, and scheduler seed the snapshot is identical run over
// run.

// OpClass buckets opcodes for the per-class retired-instruction histogram.
type OpClass uint8

const (
	OpClassALU      OpClass = iota // mov/lea/arith/logic/shift/setcc/tlsbase/nop
	OpClassMem                     // loads and stores (incl. indexed, push/pop)
	OpClassBranch                  // direct jumps and conditional branches
	OpClassIndirect                // register/memory-indirect jumps and calls
	OpClassCall                    // direct calls and returns
	OpClassAtomic                  // lock-prefixed RMW, XCHG, CMPXCHG
	OpClassFence                   // mfence
	OpClassVector                  // packed-SIMD ops
	OpClassExt                     // external (host-library) calls
	OpClassSys                     // syscall/hlt/ud2 and anything illegal
	NumOpClasses
)

var opClassNames = [NumOpClasses]string{
	"alu", "mem", "branch", "indirect", "call", "atomic", "fence", "vector", "ext", "sys",
}

// String returns the class's metrics label ("alu", "mem", ...).
func (c OpClass) String() string {
	if int(c) < len(opClassNames) {
		return opClassNames[c]
	}
	return "unknown"
}

// opClasses maps every opcode to its class; opLockRMW marks lock-prefixed
// read-modify-writes (the paper's `lock`-prefixed instruction budget), and
// opIndirect marks dynamically resolved control transfers (ICFT sites).
var opClasses = func() [mx.NumOps]OpClass {
	var t [mx.NumOps]OpClass
	for op := mx.Op(0); op < mx.NumOps; op++ {
		i := mx.Inst{Op: op}
		switch {
		case op == mx.CALLX:
			t[op] = OpClassExt
		case op == mx.MFENCE:
			t[op] = OpClassFence
		case i.IsAtomic():
			t[op] = OpClassAtomic
		case i.IsIndirect():
			t[op] = OpClassIndirect
		case op == mx.CALL || op == mx.RET:
			t[op] = OpClassCall
		case op == mx.JMP || op == mx.JCC:
			t[op] = OpClassBranch
		case op >= mx.LOAD8 && op <= mx.STOREIDX64:
			t[op] = OpClassMem
		case op == mx.PUSH || op == mx.POP:
			t[op] = OpClassMem
		case op >= mx.VLOAD && op <= mx.VHADD:
			t[op] = OpClassVector
		case op == mx.SYSCALL || op == mx.HLT || op == mx.UD2 || op == mx.BAD:
			t[op] = OpClassSys
		default:
			t[op] = OpClassALU
		}
	}
	return t
}()

var opLockRMW = func() [mx.NumOps]bool {
	var t [mx.NumOps]bool
	for op := mx.Op(0); op < mx.NumOps; op++ {
		t[op] = (mx.Inst{Op: op}).IsAtomic()
	}
	return t
}()

var opIndirect = func() [mx.NumOps]bool {
	var t [mx.NumOps]bool
	for op := mx.Op(0); op < mx.NumOps; op++ {
		t[op] = (mx.Inst{Op: op}).IsIndirect()
	}
	return t
}()

// ThreadCounters is one thread's retired-work totals.
type ThreadCounters struct {
	Insts  uint64 // instructions retired by this thread
	Cycles uint64 // cycles charged to this thread
}

// Counters is a machine-counter snapshot. The fields are plain values: copy
// or Merge them freely once the owning machine's Run has returned.
type Counters struct {
	// Insts is the total retired-instruction count.
	Insts uint64
	// Predecoded-instruction-cache outcomes (icache.go). A hit served a
	// fetch from a predecoded page; a miss predecoded the page; an
	// invalidation dropped a predecoded page because guest code was
	// stored over.
	ICacheHits, ICacheMisses, ICacheInvalidations uint64
	// Software-TLB outcomes (mem.go): a hit translated through the
	// direct-mapped entry, a miss walked the page map.
	TLBHits, TLBMisses uint64
	// Preemptions counts scheduler switches away from a still-runnable
	// thread at quantum expiry.
	Preemptions uint64
	// LockRMW counts lock-prefixed read-modify-writes (incl. XCHG and
	// CMPXCHG); Cmpxchg counts CMPXCHG alone.
	LockRMW, Cmpxchg uint64
	// IndirectBranches counts dynamically resolved control transfers
	// (JMPR/JMPM/CALLR — the ICFT site executions).
	IndirectBranches uint64
	// Fences counts fence instructions retired. Nonzero only for code
	// that actually carries fences — recompiled output for a
	// weakly-ordered target, or hand-written guest code.
	Fences uint64
	// SpillOps counts 8-byte frame-slot accesses (rbp-relative loads and
	// stores with a negative displacement — the lowered code's spill-slot
	// idiom), the dynamic cost of register pressure on register-poor
	// targets.
	SpillOps uint64
	// OpClassCounts is the per-opcode-class retired histogram.
	OpClassCounts [NumOpClasses]uint64
	// Threads holds per-thread retired instructions and cycles, indexed by
	// thread ID.
	Threads []ThreadCounters
}

// NewCounters returns a zeroed counter block.
func NewCounters() *Counters { return &Counters{} }

// thread returns the per-thread slot for tid, growing the slice as threads
// spawn.
func (c *Counters) thread(tid int) *ThreadCounters {
	for tid >= len(c.Threads) {
		c.Threads = append(c.Threads, ThreadCounters{})
	}
	return &c.Threads[tid]
}

// opSpillable marks the opcodes whose rbp-relative negative-displacement
// form is the lowered code's spill-slot access idiom.
var opSpillable = func() [mx.NumOps]bool {
	var t [mx.NumOps]bool
	t[mx.LOAD64] = true
	t[mx.STORE64] = true
	return t
}()

// count accounts one retired instruction (the per-step loop's hook, called
// with the decoded instruction).
func (c *Counters) count(tid int, inst *mx.Inst) {
	op := inst.Op
	c.Insts++
	c.thread(tid).Insts++
	c.OpClassCounts[opClasses[op]]++
	if opLockRMW[op] {
		c.LockRMW++
		if op == mx.CMPXCHG {
			c.Cmpxchg++
		}
	}
	if opIndirect[op] {
		c.IndirectBranches++
	}
	if op == mx.MFENCE {
		c.Fences++
	}
	if opSpillable[op] && inst.Base == mx.RBP && inst.Disp < 0 {
		c.SpillOps++
	}
}

// addCycles accounts charged cycles (the charge hook).
func (c *Counters) addCycles(tid int, n uint64) {
	c.thread(tid).Cycles += n
}

// Merge adds o's totals into c (per-thread slots merge by thread ID).
func (c *Counters) Merge(o *Counters) {
	if o == nil {
		return
	}
	c.Insts += o.Insts
	c.ICacheHits += o.ICacheHits
	c.ICacheMisses += o.ICacheMisses
	c.ICacheInvalidations += o.ICacheInvalidations
	c.TLBHits += o.TLBHits
	c.TLBMisses += o.TLBMisses
	c.Preemptions += o.Preemptions
	c.LockRMW += o.LockRMW
	c.Cmpxchg += o.Cmpxchg
	c.IndirectBranches += o.IndirectBranches
	c.Fences += o.Fences
	c.SpillOps += o.SpillOps
	for i := range c.OpClassCounts {
		c.OpClassCounts[i] += o.OpClassCounts[i]
	}
	for tid, tc := range o.Threads {
		slot := c.thread(tid)
		slot.Insts += tc.Insts
		slot.Cycles += tc.Cycles
	}
}

// Clone returns a deep copy.
func (c *Counters) Clone() *Counters {
	out := *c
	out.Threads = append([]ThreadCounters(nil), c.Threads...)
	return &out
}

// ICacheHitRatio returns hits/(hits+misses), or 0 with no fetches.
func (c *Counters) ICacheHitRatio() float64 {
	return ratio64(c.ICacheHits, c.ICacheMisses)
}

// TLBHitRatio returns hits/(hits+misses), or 0 with no translations.
func (c *Counters) TLBHitRatio() float64 {
	return ratio64(c.TLBHits, c.TLBMisses)
}

func ratio64(hit, miss uint64) float64 {
	if hit+miss == 0 {
		return 0
	}
	return float64(hit) / float64(hit+miss)
}

// CounterSink aggregates counter snapshots across machines (polybench runs
// hundreds of concurrent VMs under -j; each absorbs its totals here when its
// Run completes).
type CounterSink struct {
	mu    sync.Mutex
	total Counters
}

// NewCounterSink returns an empty sink.
func NewCounterSink() *CounterSink { return &CounterSink{} }

// Absorb merges one machine's counters into the sink total.
func (s *CounterSink) Absorb(c *Counters) {
	if s == nil || c == nil {
		return
	}
	s.mu.Lock()
	s.total.Merge(c)
	s.mu.Unlock()
}

// Snapshot returns a deep copy of the aggregated totals.
func (s *CounterSink) Snapshot() *Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total.Clone()
}

// CounterSinkDefault, when set before machines are created (polybench
// -metrics does this once at startup), enables counters on every new Machine
// and absorbs each machine's totals into the sink when its Run returns.
var CounterSinkDefault *CounterSink

// EnableCounters turns on machine counters for this machine and returns the
// live counter block (also reachable via Counters). Call before Run.
func (m *Machine) EnableCounters() *Counters {
	if m.ctr == nil {
		m.ctr = NewCounters()
		m.Mem.ctr = m.ctr
	}
	return m.ctr
}

// Counters returns the machine's live counter block, or nil when counters
// are disabled. With a CounterSinkDefault installed the block is absorbed
// into the sink and replaced at the end of every Run; read the sink instead.
func (m *Machine) Counters() *Counters { return m.ctr }
