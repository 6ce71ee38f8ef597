// Package vm executes MX64 binaries on a deterministic multithreaded
// emulator.
//
// The machine stands in for the paper's execution environment (x86-64 Linux):
// it provides multiple threads of execution over a shared flat memory with
// TSO-like semantics (the interpreter serializes instructions, so every
// execution is a sequentially consistent interleaving — a legal TSO
// execution), per-thread stacks and thread-local storage, hardware atomic
// instructions, a seeded instruction-level interleaving scheduler, and a
// cycle cost model that yields reproducible performance ratios.
//
// A host library (ext.go) models the native shared libraries (glibc,
// libpthread) the paper treats as external: threads are spawned clone-style
// through an entry-point callback, qsort calls back into guest code, and an
// OpenMP-like parallel-for spawns one callback thread per chunk.
package vm

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/image"
	"repro/internal/mx"
)

// Distinguished return addresses. RET to one of these transfers control to
// the host rather than to guest code.
const (
	magicThreadExit uint64 = 0xffff_ffff_ffff_f000 // thread entry returned
	magicHostFrame  uint64 = 0xffff_ffff_ffff_f100 // re-enter a host state machine
)

// stack geometry
const (
	stackSize  = 1 << 20
	stackGuard = 1 << 12
)

// heapEnd bounds the guest heap: Malloc hands out blocks in
// [image.HeapBase, heapEnd), and the first thread's TLS block starts there.
const heapEnd = image.HeapBase + 1<<28

// ThreadState describes what a thread is doing.
type ThreadState uint8

const (
	Runnable ThreadState = iota
	Blocked
	Done
)

// Thread is one guest execution context.
type Thread struct {
	ID    int
	Regs  [mx.NumRegs]uint64
	VRegs [mx.NumVRegs][mx.VectorWidth]uint64
	ZF    bool
	SF    bool
	CF    bool
	OF    bool
	PC    uint64
	TLS   uint64 // base of this thread's TLS block (0 if none)

	State     ThreadState
	ExitValue uint64 // RAX when the entry function returned
	StackLo   uint64 // lowest mapped stack address (for diagnostics)
	// EmuStack is [base, end) of the emulated program stack the
	// recompiled-binary runtime (__polynima_thread_init) allocated for this
	// thread; zero until it does.
	EmuStack [2]uint64

	// sbuf is this thread's store buffer in weak-ordering machine mode
	// (weak.go); always empty on the default TSO machine.
	sbuf []sbEntry

	// wakeup is called when whatever the thread blocked on resolves.
	wakeup func()
	// hostFrames holds suspended host-library state machines (qsort etc.)
	// that resume when guest code RETs to magicHostFrame. Each entry also
	// records the guest address execution continues at once the state
	// machine completes (the instruction after the originating CALLX).
	hostFrames []hostFrameEntry

	Cycles uint64 // cycles attributed to this thread
}

type hostFrameEntry struct {
	frame hostFrame
	cont  uint64
}

type hostFrame interface {
	// resume is called when the guest callback returned; ret is guest RAX.
	// It either schedules another guest call (returns done=false) or
	// finishes (done=true), in which case the thread continues after the
	// original CALLX.
	resume(m *Machine, t *Thread, ret uint64) (done bool, err error)
}

// Fault describes an abnormal machine stop.
type Fault struct {
	Thread int
	PC     uint64
	Reason string
	// Cancelled marks a stop forced by the machine's cancel signal
	// (SetCancel) rather than by guest behavior.
	Cancelled bool
}

func (f *Fault) Error() string {
	return fmt.Sprintf("vm: fault in thread %d at %#x: %s", f.Thread, f.PC, f.Reason)
}

// Result summarizes a completed run.
type Result struct {
	ExitCode int
	Cycles   uint64 // total cycles across all threads
	Insts    uint64 // total instructions executed
	Output   string
	Fault    *Fault // nil on clean exit
}

// ExtFunc is a host-library function. It reads arguments from t's registers
// (rdi, rsi, rdx, rcx, r8, r9), may block the thread or spawn threads, and
// returns a result in rax by mutating t.
type ExtFunc func(m *Machine, t *Thread) error

// ControlKind classifies a dynamic control transfer for hooks.
type ControlKind uint8

const (
	KindJump ControlKind = iota
	KindCall
	KindRet
)

// Machine is an MX64 virtual machine executing one loaded image.
type Machine struct {
	Mem *Memory
	Img *image.Image

	threads  []*Thread
	nextTID  int
	liveCnt  int
	rng      *rand.Rand
	quantum  int
	exited   bool
	exitCode int
	fault    *Fault

	cycles uint64
	insts  uint64

	// machine counters (counters.go); nil when disabled, which is the
	// uninstrumented default — every counting site is behind a nil check.
	ctr  *Counters
	sink *CounterSink

	// weak-ordering machine mode (weak.go), selected by the image's
	// Machine field: plain stores buffer per thread until a drain point.
	// sbOwner is the only thread with a nonempty store buffer (the buffer
	// drains before any other thread runs), or nil.
	weak    bool
	sbOwner *Thread

	// predecoded instruction cache (icache.go). icBase/icPage are the
	// last-fetched page, the common case of straight-line execution.
	icache map[uint64]*codePage
	icBase uint64
	icPage *codePage

	Out   bytes.Buffer
	input []byte // consumed by input externals

	heapNext uint64
	freeList map[uint64][]uint64 // size -> addresses (trivial recycler)
	tlsNext  uint64

	exts    []ExtFunc // indexed by image import table
	extCost []uint64
	extra   map[string]ExtFunc // registered before Load for custom imports

	// OnIndirect, if set, is invoked for every dynamically executed
	// indirect control transfer (JMPR/JMPM/CALLR) and for RETs, with the
	// source instruction address and dynamic target. The ICFT tracer
	// (internal/tracer) attaches here, standing in for the paper's Pin tool.
	OnIndirect func(t *Thread, from, target uint64, kind ControlKind)
	// OnBlock, if set, is invoked at every control transfer with the new PC.
	// The BinRec-like baseline tracer attaches here.
	OnBlock func(t *Thread, pc uint64)
	// ExtraCostPerInst inflates every instruction's cost; the BinRec-like
	// baseline uses it to model emulator-coupled lifting overhead.
	ExtraCostPerInst uint64
	// MissHook observes __polynima_miss calls from recompiled binaries
	// (site address, dynamic target) before the machine stops with
	// MissExitCode. The additive-lifting driver attaches here.
	MissHook func(t *Thread, site, target uint64)
	// OnGuestEntry observes every external entry into guest code: thread
	// spawns (clone-style entry points) and host-library callbacks (qsort
	// comparators). The callback-pruning analysis (§3.3.3) attaches here.
	OnGuestEntry func(fn uint64)

	// access recording (record.go): the host function and the site table
	// (code address -> site ID); recFn is nil when recording is off.
	recFn    AccessFunc
	recSites map[uint64]int

	// scheduler bookkeeping. runFuel and extFrom belong to the fast batch
	// loop's sole-runnable grant extension (step_threaded.go): runFuel is
	// the active Run's fuel limit, extFrom the batch offset at which the
	// most recent in-batch quantum began (-1 when no extension fired).
	sliceLeft int
	curIdx    int
	runFuel   uint64
	extFrom   int

	// cancel, when non-nil, is polled at scheduling boundaries (SetCancel);
	// once closed, Run stops with a Cancelled fault.
	cancel      <-chan struct{}
	cancelCheck uint64 // next insts value at which Run polls cancel

	// synchronization objects keyed by guest address
	mutexMap   map[uint64]*hostMutex
	condMap    map[uint64]*hostCond
	barrierMap map[uint64]*hostBarrier
}

// New creates a machine, loads img, and creates the main thread at the entry
// point. seed drives the interleaving scheduler.
func New(img *image.Image, seed int64) (*Machine, error) {
	return NewWithExts(img, seed, nil)
}

// NewWithExts is New with additional host functions made available to the
// import binder under the given names (overriding builtins on collision).
func NewWithExts(img *image.Image, seed int64, exts map[string]ExtFunc) (*Machine, error) {
	tgt := mx.TargetByMachine(img.Machine)
	if tgt == nil {
		return nil, fmt.Errorf("vm: image %q requires unknown machine mode %q", img.Name, img.Machine)
	}
	m := &Machine{
		Mem:      NewMemory(),
		Img:      img,
		rng:      rand.New(rand.NewSource(seed)),
		quantum:  41, // prime, so threads drift against loop periods
		heapNext: image.HeapBase,
		freeList: map[uint64][]uint64{},
		extra:    map[string]ExtFunc{},
	}
	for name, fn := range exts {
		m.extra[name] = fn
	}
	for _, s := range img.Sections {
		if s.Data != nil {
			m.Mem.WriteBytes(s.Addr, s.Data)
		}
		if s.Size > uint64(len(s.Data)) {
			m.Mem.Map(s.Addr, s.Size)
		}
	}
	// Instruction fetch decodes from guest memory (loaded above), so guest
	// stores into code pages are architecturally visible; watch the
	// executable ranges so such stores invalidate the predecode cache.
	m.weak = tgt.WeakOrder
	m.icache = map[uint64]*codePage{}
	m.icBase = noPage
	if CounterSinkDefault != nil {
		m.sink = CounterSinkDefault
		m.EnableCounters()
	}
	var execRanges [][2]uint64
	for _, s := range img.Sections {
		if s.Exec && s.Size > 0 {
			execRanges = append(execRanges, [2]uint64{s.Addr, s.Addr + s.Size})
		}
	}
	m.Mem.watchWrites(execRanges, m.invalidateCode)
	m.tlsNext = heapEnd
	if err := m.bindImports(); err != nil {
		return nil, err
	}
	m.spawn(img.Entry, [6]uint64{})
	return m, nil
}

// SetInput provides the byte stream consumed by the input externals.
func (m *Machine) SetInput(p []byte) { m.input = append([]byte(nil), p...) }

// SetCancel installs a cancellation signal: once ch is closed, a running
// Run stops within a bounded number of instructions with a Cancelled fault
// instead of executing to completion — the seam that lets a request-scoped
// context (a disconnected daemon client) reclaim a guest run. The default
// nil channel is never polled, so uncancellable runs pay only a nil check
// per scheduling quantum; with a channel installed the poll is amortized
// over cancelPollInsts instructions.
func (m *Machine) SetCancel(ch <-chan struct{}) { m.cancel = ch }

// cancelPollInsts bounds how many instructions may retire between cancel
// polls: small enough that a cancelled run stops in well under a
// millisecond, large enough that the channel select vanishes in the noise.
const cancelPollInsts = 4096

// cancelled reports whether the cancel signal has fired.
func (m *Machine) cancelled() bool {
	if m.cancel == nil {
		return false
	}
	select {
	case <-m.cancel:
		return true
	default:
		return false
	}
}

// Threads returns the machine's threads (live and dead), for inspection.
func (m *Machine) Threads() []*Thread { return m.threads }

// Cycles returns total cycles executed so far.
func (m *Machine) Cycles() uint64 { return m.cycles }

// spawn creates a new thread entering fn with up to six register arguments.
func (m *Machine) spawn(fn uint64, args [6]uint64) *Thread {
	if m.OnGuestEntry != nil {
		m.OnGuestEntry(fn)
	}
	t := &Thread{ID: m.nextTID, PC: fn, State: Runnable}
	m.nextTID++
	// Per-thread stack, with an unmapped guard page below.
	top := image.StackTop - uint64(t.ID)*(stackSize+stackGuard)
	lo := top - stackSize
	m.Mem.Map(lo, stackSize)
	t.StackLo = lo
	t.Regs[mx.RSP] = top - 8
	// Push the magic return address so the entry function's RET exits the
	// thread (the clone-style entry-point contract from the paper).
	m.Mem.Store(t.Regs[mx.RSP], magicThreadExit, 8)
	argRegs := []mx.Reg{mx.RDI, mx.RSI, mx.RDX, mx.RCX, mx.R8, mx.R9}
	for i, v := range args {
		t.Regs[argRegs[i]] = v
	}
	// TLS block.
	if m.Img.TLSSize > 0 {
		sz := (m.Img.TLSSize + pageSize - 1) &^ (pageSize - 1)
		t.TLS = m.tlsNext
		m.tlsNext += sz + pageSize
		m.Mem.Map(t.TLS, sz)
	}
	m.threads = append(m.threads, t)
	m.liveCnt++
	return t
}

// Malloc allocates n bytes of guest heap (host-side allocator). It reports
// false, allocating nothing, when the block would not fit below heapEnd,
// where the TLS blocks begin.
func (m *Machine) Malloc(n uint64) (uint64, bool) {
	if n == 0 {
		n = 8
	}
	if n > heapEnd-image.HeapBase {
		return 0, false // also keeps the rounding below from wrapping
	}
	n = (n + 15) &^ 15
	if lst := m.freeList[n]; len(lst) > 0 {
		a := lst[len(lst)-1]
		m.freeList[n] = lst[:len(lst)-1]
		return a, true
	}
	a := m.heapNext
	if a > heapEnd || n > heapEnd-a {
		return 0, false
	}
	m.heapNext += n + 16
	m.Mem.Map(a, n)
	return a, true
}

// Free returns a Malloc'd block of the given size to the allocator.
func (m *Machine) Free(addr, size uint64) {
	size = (size + 15) &^ 15
	m.freeList[size] = append(m.freeList[size], addr)
}

// pickThread selects the next runnable thread (deterministic, seeded).
func (m *Machine) pickThread() *Thread {
	n := len(m.threads)
	if m.sliceLeft > 0 && m.curIdx < n && m.threads[m.curIdx].State == Runnable {
		m.sliceLeft--
		return m.threads[m.curIdx]
	}
	// Choose the next runnable thread after curIdx (round-robin), with a
	// small seeded chance of skipping one extra thread to vary interleavings.
	start := m.curIdx + 1
	if m.rng.Intn(8) == 0 {
		start++
	}
	for k := 0; k < n; k++ {
		idx := (start + k) % n
		if m.threads[idx].State == Runnable {
			if m.ctr != nil && idx != m.curIdx && m.curIdx < n && m.threads[m.curIdx].State == Runnable {
				// Switched away from a still-runnable thread: a preemption,
				// as opposed to a switch forced by a block or exit.
				m.ctr.Preemptions++
			}
			m.curIdx = idx
			m.sliceLeft = m.quantum - 1
			return m.threads[idx]
		}
	}
	return nil
}

// Run executes until clean exit, fault, deadlock, or the fuel limit (in
// instructions) is exhausted.
func (m *Machine) Run(fuel uint64) Result {
	m.runFuel = fuel
	m.cancelCheck = 0
	for !m.exited && m.fault == nil && m.insts < fuel {
		if m.cancel != nil && m.insts >= m.cancelCheck {
			m.cancelCheck = m.insts + cancelPollInsts
			if m.cancelled() {
				m.fault = &Fault{Reason: "run cancelled", Cancelled: true}
				break
			}
		}
		t := m.pickThread()
		if m.weak && m.sbOwner != nil && m.sbOwner != t {
			// Thread switch: the outgoing thread's buffered stores become
			// globally visible before any other thread executes. This keeps
			// every weak-mode execution observationally SC (weak.go).
			m.drainSB(m.sbOwner)
		}
		if t == nil {
			if m.liveCnt == 0 {
				// All threads returned; treat main's return as exit code.
				m.exited = true
				m.exitCode = int(int64(m.threads[0].ExitValue))
				break
			}
			m.fault = &Fault{Reason: "deadlock: no runnable threads"}
			break
		}
		// One batch stands in for this pick plus every fast-path re-pick
		// the scheduler would grant t before its slice expires: the fast
		// path consumes no randomness and decrements sliceLeft once per
		// instruction, so granting `1 + sliceLeft` up front and settling
		// the decrement after the batch is the identical schedule.
		budget := uint64(m.sliceLeft) + 1
		if rem := fuel - m.insts; budget > rem {
			budget = rem
		}
		m.extFrom = -1
		if ran := m.stepBatch(t, int(budget)); ran > 0 {
			if m.extFrom >= 0 {
				// The batch extended past slice boundaries (sole-runnable
				// fast path); the last fresh quantum began at batch offset
				// extFrom, so its remainder is what a per-step scheduler
				// would have left.
				m.sliceLeft = m.quantum - (ran - m.extFrom)
			} else {
				m.sliceLeft -= ran - 1
			}
		}
	}
	if m.weak && m.sbOwner != nil {
		// Make the final thread's stores visible before the host inspects
		// memory (and before a later Run resumes a different thread).
		m.drainSB(m.sbOwner)
	}
	if !m.exited && m.fault == nil && m.insts >= fuel {
		m.fault = &Fault{Reason: fmt.Sprintf("fuel exhausted after %d instructions", m.insts)}
	}
	if m.sink != nil && m.ctr != nil {
		// Hand this run's deltas to the sink and start fresh, so a machine
		// that Runs repeatedly (the additive-lifting driver) is not
		// double-counted.
		m.sink.Absorb(m.ctr)
		m.ctr = NewCounters()
		m.Mem.ctr = m.ctr
	}
	return Result{
		ExitCode: m.exitCode,
		Cycles:   m.cycles,
		Insts:    m.insts,
		Output:   m.Out.String(),
		Fault:    m.fault,
	}
}

func (m *Machine) faultf(t *Thread, pc uint64, format string, args ...any) {
	if m.fault == nil {
		m.fault = &Fault{Thread: t.ID, PC: pc, Reason: fmt.Sprintf(format, args...)}
	}
}

// exit stops the whole machine with the given code.
func (m *Machine) exit(code int) {
	m.exited = true
	m.exitCode = code
}

// threadReturned handles a RET to magicThreadExit.
func (m *Machine) threadReturned(t *Thread) {
	t.State = Done
	t.ExitValue = t.Regs[mx.RAX]
	m.liveCnt--
	if t.wakeup != nil {
		w := t.wakeup
		t.wakeup = nil
		w()
	}
	if t.ID == 0 {
		// Main returned: process exits (remaining threads are torn down,
		// as on Linux when main returns).
		m.exit(int(int64(t.ExitValue)))
	}
}

// charge adds cycle cost to the machine and thread.
func (m *Machine) charge(t *Thread, c uint64) {
	c += m.ExtraCostPerInst
	m.cycles += c
	t.Cycles += c
	if m.ctr != nil {
		m.ctr.addCycles(t.ID, c)
	}
}
