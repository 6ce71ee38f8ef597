package vm

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"repro/internal/mx"
)

// This file implements the host library: the native shared libraries
// (libc, libpthread, an OpenMP runtime) that the paper treats as external
// code reached through the PLT. Guest programs call these through CALLX.
//
// Two functions re-enter guest code — qsort (comparator callbacks) and
// omp_parallel_for / thread_create (thread entry-point callbacks). These are
// exactly the external-entry-point cases (§2.2.3, §3.3.3) that make
// recompilation of multithreaded binaries hard, so the host library
// reproduces their contracts faithfully: entry points are plain code
// addresses, invoked on a fresh thread with a fresh stack (clone-style) or on
// the caller's thread (qsort).

func arg(t *Thread, i int) uint64 {
	return t.Regs[[]mx.Reg{mx.RDI, mx.RSI, mx.RDX, mx.RCX, mx.R8, mx.R9}[i]]
}

func ret(t *Thread, v uint64) { t.Regs[mx.RAX] = v }

// mallocHeaderSize is the hidden size header before each allocation.
const mallocHeaderSize = 16

type extDef struct {
	fn   ExtFunc
	cost uint64
}

var builtinExts = map[string]extDef{
	"exit": {func(m *Machine, t *Thread) error {
		m.exit(int(int64(arg(t, 0))))
		return nil
	}, 10},

	"print_i64": {func(m *Machine, t *Thread) error {
		m.Out.WriteString(strconv.FormatInt(int64(arg(t, 0)), 10))
		m.Out.WriteByte('\n')
		return nil
	}, 40},

	"print_str": {func(m *Machine, t *Thread) error {
		s, ok := m.Mem.CString(arg(t, 0))
		if !ok {
			return fmt.Errorf("bad string pointer %#x", arg(t, 0))
		}
		m.Out.WriteString(s)
		return nil
	}, 40},

	"print_char": {func(m *Machine, t *Thread) error {
		m.Out.WriteByte(byte(arg(t, 0)))
		return nil
	}, 10},

	"write": {func(m *Machine, t *Thread) error {
		p, n := arg(t, 0), arg(t, 1)
		if !m.Mem.Mapped(p, n) {
			return fmt.Errorf("bad buffer %#x+%d", p, n)
		}
		m.Mem.Visit(p, n, func(b []byte) { m.Out.Write(b) })
		ret(t, n)
		return nil
	}, 40},

	"clock": {func(m *Machine, t *Thread) error {
		ret(t, m.cycles)
		return nil
	}, 5},

	"input_read": {func(m *Machine, t *Thread) error {
		n := arg(t, 1)
		if n > uint64(len(m.input)) {
			n = uint64(len(m.input))
		}
		m.Mem.WriteBytes(arg(t, 0), m.input[:n])
		m.input = m.input[n:]
		m.charge(t, n/8)
		ret(t, n)
		return nil
	}, 30},

	"input_byte": {func(m *Machine, t *Thread) error {
		if len(m.input) == 0 {
			ret(t, ^uint64(0)) // -1 on EOF
			return nil
		}
		ret(t, uint64(m.input[0]))
		m.input = m.input[1:]
		return nil
	}, 5},

	"malloc": {func(m *Machine, t *Thread) error {
		// A size that wraps in Malloc's header or rounding would hand the
		// guest a block smaller than it asked for.
		n := arg(t, 0)
		if n > math.MaxUint64-mallocHeaderSize-15 {
			return fmt.Errorf("malloc(%d): size overflows", n)
		}
		a, ok := m.Malloc(n + mallocHeaderSize)
		if !ok {
			return fmt.Errorf("malloc(%d): heap exhausted", n)
		}
		m.Mem.Store(a, n+mallocHeaderSize, 8)
		ret(t, a+mallocHeaderSize)
		return nil
	}, 30},

	"calloc": {func(m *Machine, t *Thread) error {
		// A size that wraps, in the product or in Malloc's header and
		// rounding, would hand the guest a block smaller than it asked for.
		hi, n := bits.Mul64(arg(t, 0), arg(t, 1))
		if hi != 0 || n > math.MaxUint64-mallocHeaderSize-15 {
			return fmt.Errorf("calloc(%d, %d): size overflows", arg(t, 0), arg(t, 1))
		}
		a, ok := m.Malloc(n + mallocHeaderSize)
		if !ok {
			return fmt.Errorf("calloc(%d, %d): heap exhausted", arg(t, 0), arg(t, 1))
		}
		m.Mem.Store(a, n+mallocHeaderSize, 8)
		// Malloc'd pages are freshly mapped (zero) or recycled: clear the
		// block in guest memory.
		m.Mem.Fill(a+mallocHeaderSize, n, 0)
		m.charge(t, n/16)
		ret(t, a+mallocHeaderSize)
		return nil
	}, 40},

	"free": {func(m *Machine, t *Thread) error {
		p := arg(t, 0)
		if p == 0 {
			return nil
		}
		sz, ok := m.Mem.Load(p-mallocHeaderSize, 8)
		if !ok {
			return fmt.Errorf("free of invalid pointer %#x", p)
		}
		m.Free(p-mallocHeaderSize, sz)
		return nil
	}, 15},

	// memcpy and memset, like write and qsort's swap, check their ranges
	// first and then work page by page in guest memory: no host buffer
	// grows with a size the guest chose.
	"memcpy": {func(m *Machine, t *Thread) error {
		dst, src, n := arg(t, 0), arg(t, 1), arg(t, 2)
		if !m.Mem.Mapped(src, n) {
			return fmt.Errorf("memcpy source unmapped")
		}
		if !m.Mem.Mapped(dst, n) {
			return fmt.Errorf("memcpy destination unmapped")
		}
		m.Mem.Copy(dst, src, n)
		m.charge(t, n/8)
		ret(t, dst)
		return nil
	}, 20},

	"memset": {func(m *Machine, t *Thread) error {
		dst, n := arg(t, 0), arg(t, 2)
		if !m.Mem.Mapped(dst, n) {
			return fmt.Errorf("memset destination unmapped")
		}
		m.Mem.Fill(dst, n, byte(arg(t, 1)))
		m.charge(t, n/8)
		ret(t, dst)
		return nil
	}, 20},

	"strlen": {func(m *Machine, t *Thread) error {
		s, ok := m.Mem.CString(arg(t, 0))
		if !ok {
			return fmt.Errorf("strlen of bad pointer")
		}
		m.charge(t, uint64(len(s))/8)
		ret(t, uint64(len(s)))
		return nil
	}, 15},

	"strcmp": {func(m *Machine, t *Thread) error {
		a, ok1 := m.Mem.CString(arg(t, 0))
		b, ok2 := m.Mem.CString(arg(t, 1))
		if !ok1 || !ok2 {
			return fmt.Errorf("strcmp of bad pointer")
		}
		switch {
		case a < b:
			ret(t, ^uint64(0))
		case a > b:
			ret(t, 1)
		default:
			ret(t, 0)
		}
		return nil
	}, 20},

	"strcpy": {func(m *Machine, t *Thread) error {
		s, ok := m.Mem.CString(arg(t, 1))
		if !ok {
			return fmt.Errorf("strcpy of bad pointer")
		}
		m.Mem.WriteBytes(arg(t, 0), append([]byte(s), 0))
		ret(t, arg(t, 0))
		return nil
	}, 20},

	// --- threading (libpthread model) ----------------------------------

	"thread_create": {func(m *Machine, t *Thread) error {
		fn, a := arg(t, 0), arg(t, 1)
		nt := m.spawn(fn, [6]uint64{a})
		ret(t, uint64(nt.ID))
		return nil
	}, 200},

	"thread_join": {func(m *Machine, t *Thread) error {
		tid := int(arg(t, 0))
		if tid < 0 || tid >= len(m.threads) {
			return fmt.Errorf("join of invalid thread %d", tid)
		}
		target := m.threads[tid]
		if target.State == Done {
			ret(t, target.ExitValue)
			return nil
		}
		if target.wakeup != nil {
			return fmt.Errorf("thread %d joined twice", tid)
		}
		t.State = Blocked
		target.wakeup = func() {
			ret(t, target.ExitValue)
			t.State = Runnable
		}
		return nil
	}, 50},

	"sched_yield": {func(m *Machine, t *Thread) error {
		m.sliceLeft = 0
		return nil
	}, 10},

	"thread_id": {func(m *Machine, t *Thread) error {
		ret(t, uint64(t.ID))
		return nil
	}, 5},

	"mutex_lock": {func(m *Machine, t *Thread) error {
		return m.mutexLock(t, arg(t, 0))
	}, 25},

	"mutex_unlock": {func(m *Machine, t *Thread) error {
		return m.mutexUnlock(t, arg(t, 0))
	}, 25},

	"cond_wait": {func(m *Machine, t *Thread) error {
		return m.condWait(t, arg(t, 0), arg(t, 1))
	}, 30},

	"cond_signal": {func(m *Machine, t *Thread) error {
		m.condSignal(arg(t, 0), false)
		return nil
	}, 30},

	"cond_broadcast": {func(m *Machine, t *Thread) error {
		m.condSignal(arg(t, 0), true)
		return nil
	}, 30},

	"barrier_wait": {func(m *Machine, t *Thread) error {
		return m.barrierWait(t, arg(t, 0), arg(t, 1))
	}, 30},

	// --- callbacks -------------------------------------------------------

	"qsort": {func(m *Machine, t *Thread) error {
		return m.startQsort(t, arg(t, 0), arg(t, 1), arg(t, 2), arg(t, 3))
	}, 100},

	"omp_parallel_for": {func(m *Machine, t *Thread) error {
		return m.ompParallelFor(t, arg(t, 0), int64(arg(t, 1)), int64(arg(t, 2)), arg(t, 3), int(arg(t, 4)))
	}, 300},

	// --- recompiled-binary runtime (Polynima) ---------------------------

	// __polynima_thread_init allocates this thread's emulated program
	// stack, records its range in t.EmuStack and returns its (aligned) top.
	// Called once per thread by the callback wrappers when they observe an
	// uninitialized TLS (§3.3.2).
	"__polynima_thread_init": {func(m *Machine, t *Thread) error {
		const emuStackSize = 1 << 20
		base, ok := m.Malloc(emuStackSize)
		if !ok {
			return fmt.Errorf("emulated stack (%d bytes): heap exhausted", emuStackSize)
		}
		t.EmuStack = [2]uint64{base, base + emuStackSize}
		top := (base + emuStackSize - 64) &^ 15
		ret(t, top)
		return nil
	}, 100},

	// __polynima_miss(site, target) records a control-flow miss (an
	// indirect transfer to a target unknown at recompile time) and stops
	// the program so the additive-lifting loop can integrate the new path
	// (§3.2).
	"__polynima_miss": {func(m *Machine, t *Thread) error {
		if m.MissHook != nil {
			m.MissHook(t, arg(t, 0), arg(t, 1))
		}
		m.exit(MissExitCode)
		return nil
	}, 20},

	// __polynima_lock / __polynima_unlock serialize the naive (Listing 1)
	// atomic translation on one global runtime lock.
	"__polynima_lock": {func(m *Machine, t *Thread) error {
		return m.mutexLock(t, polyGlobalLockKey)
	}, 25},
	"__polynima_unlock": {func(m *Machine, t *Thread) error {
		return m.mutexUnlock(t, polyGlobalLockKey)
	}, 25},
}

// MissExitCode is the distinguished exit code of a recompiled binary that
// hit a control-flow miss.
const MissExitCode = 121

// polyGlobalLockKey keys the naive-atomics global lock (an address no guest
// object occupies).
const polyGlobalLockKey = 1

// bindImports resolves the image's import table against the builtin host
// library plus any machine-specific registrations.
func (m *Machine) bindImports() error {
	m.exts = make([]ExtFunc, len(m.Img.Imports))
	m.extCost = make([]uint64, len(m.Img.Imports))
	for i, name := range m.Img.Imports {
		if fn, ok := m.extra[name]; ok {
			m.exts[i] = fn
			m.extCost[i] = 30
			continue
		}
		def, ok := builtinExts[name]
		if !ok {
			return fmt.Errorf("vm: unresolved import %q", name)
		}
		m.exts[i] = def.fn
		m.extCost[i] = def.cost
	}
	return nil
}

// --- synchronization objects (keyed by guest address) ----------------------

type hostMutex struct {
	owner   int // thread ID + 1; 0 = unlocked
	waiters []*Thread
}

type hostCond struct {
	waiters []*Thread
	mutexes []uint64 // mutex to re-acquire per waiter
}

type hostBarrier struct {
	arrived []*Thread
}

func (m *Machine) mutexes() map[uint64]*hostMutex {
	if m.mutexMap == nil {
		m.mutexMap = map[uint64]*hostMutex{}
	}
	return m.mutexMap
}

func (m *Machine) mutexLock(t *Thread, addr uint64) error {
	mu := m.mutexes()[addr]
	if mu == nil {
		mu = &hostMutex{}
		m.mutexes()[addr] = mu
	}
	if mu.owner == 0 {
		mu.owner = t.ID + 1
		return nil
	}
	if mu.owner == t.ID+1 {
		return fmt.Errorf("recursive lock of mutex %#x", addr)
	}
	t.State = Blocked
	mu.waiters = append(mu.waiters, t)
	return nil
}

func (m *Machine) mutexUnlock(t *Thread, addr uint64) error {
	mu := m.mutexes()[addr]
	if mu == nil || mu.owner == 0 {
		return fmt.Errorf("unlock of unlocked mutex %#x", addr)
	}
	if mu.owner != t.ID+1 {
		return fmt.Errorf("unlock of mutex %#x by non-owner", addr)
	}
	if len(mu.waiters) == 0 {
		mu.owner = 0
		return nil
	}
	next := mu.waiters[0]
	mu.waiters = mu.waiters[1:]
	mu.owner = next.ID + 1
	next.State = Runnable
	return nil
}

func (m *Machine) conds() map[uint64]*hostCond {
	if m.condMap == nil {
		m.condMap = map[uint64]*hostCond{}
	}
	return m.condMap
}

func (m *Machine) condWait(t *Thread, condAddr, mutexAddr uint64) error {
	if err := m.mutexUnlock(t, mutexAddr); err != nil {
		return err
	}
	c := m.conds()[condAddr]
	if c == nil {
		c = &hostCond{}
		m.conds()[condAddr] = c
	}
	t.State = Blocked
	c.waiters = append(c.waiters, t)
	c.mutexes = append(c.mutexes, mutexAddr)
	return nil
}

func (m *Machine) condSignal(condAddr uint64, all bool) {
	c := m.conds()[condAddr]
	if c == nil {
		return
	}
	n := 1
	if all {
		n = len(c.waiters)
	}
	for i := 0; i < n && len(c.waiters) > 0; i++ {
		w := c.waiters[0]
		muAddr := c.mutexes[0]
		c.waiters = c.waiters[1:]
		c.mutexes = c.mutexes[1:]
		// Re-acquire the mutex on behalf of the waiter; it stays blocked
		// until the mutex is granted.
		w.State = Runnable
		if err := m.mutexLock(w, muAddr); err != nil {
			m.faultf(w, w.PC, "cond re-acquire: %v", err)
		}
	}
}

func (m *Machine) barriers() map[uint64]*hostBarrier {
	if m.barrierMap == nil {
		m.barrierMap = map[uint64]*hostBarrier{}
	}
	return m.barrierMap
}

func (m *Machine) barrierWait(t *Thread, addr, count uint64) error {
	if count == 0 {
		return fmt.Errorf("barrier with count 0")
	}
	b := m.barriers()[addr]
	if b == nil {
		b = &hostBarrier{}
		m.barriers()[addr] = b
	}
	b.arrived = append(b.arrived, t)
	if uint64(len(b.arrived)) >= count {
		for _, w := range b.arrived {
			w.State = Runnable
		}
		b.arrived = nil
		return nil
	}
	t.State = Blocked
	return nil
}

// --- qsort: a host state machine driving guest comparator callbacks --------

// qsortFrame implements iterative Lomuto quicksort with exactly one guest
// comparator call outstanding at a time.
type qsortFrame struct {
	base, size, cmp uint64
	stack           [][2]int64 // pending [lo, hi] ranges
	lo, hi, i, j    int64
	inPartition     bool
}

func (m *Machine) startQsort(t *Thread, base, n, size, cmp uint64) error {
	if size == 0 {
		return fmt.Errorf("qsort with element size 0")
	}
	f := &qsortFrame{base: base, size: size, cmp: cmp}
	if n > 1 {
		f.stack = append(f.stack, [2]int64{0, int64(n) - 1})
	}
	t.hostFrames = append(t.hostFrames, hostFrameEntry{frame: f, cont: t.PC})
	// Kick off: resume with a dummy "previous result" that is ignored
	// because inPartition is false.
	done, err := f.resume(m, t, 0)
	if err != nil {
		return err
	}
	if done {
		// Nothing to sort: t.PC is still the post-CALLX address.
		t.hostFrames = t.hostFrames[:len(t.hostFrames)-1]
	}
	return nil
}

func (f *qsortFrame) elem(i int64) uint64 { return f.base + uint64(i)*f.size }

func (f *qsortFrame) swap(m *Machine, a, b int64) error {
	if a == b {
		return nil
	}
	if !m.Mem.Mapped(f.elem(a), f.size) || !m.Mem.Mapped(f.elem(b), f.size) {
		return fmt.Errorf("qsort: unmapped element")
	}
	m.Mem.Swap(f.elem(a), f.elem(b), f.size)
	return nil
}

func (f *qsortFrame) resume(m *Machine, t *Thread, cmpResult uint64) (bool, error) {
	if f.inPartition {
		// Guest comparator returned: cmp(elem[j], pivot=elem[hi]).
		if int64(cmpResult) < 0 {
			if err := f.swap(m, f.i, f.j); err != nil {
				return false, err
			}
			f.i++
		}
		f.j++
		if f.j < f.hi {
			m.callGuest(t, f.cmp, f.elem(f.j), f.elem(f.hi))
			return false, nil
		}
		// Partition finished.
		if err := f.swap(m, f.i, f.hi); err != nil {
			return false, err
		}
		if f.lo < f.i-1 {
			f.stack = append(f.stack, [2]int64{f.lo, f.i - 1})
		}
		if f.i+1 < f.hi {
			f.stack = append(f.stack, [2]int64{f.i + 1, f.hi})
		}
		f.inPartition = false
	}
	// Start the next pending range, if any.
	for len(f.stack) > 0 {
		r := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		f.lo, f.hi = r[0], r[1]
		if f.lo >= f.hi {
			continue
		}
		f.i, f.j = f.lo, f.lo
		f.inPartition = true
		m.callGuest(t, f.cmp, f.elem(f.j), f.elem(f.hi))
		return false, nil
	}
	return true, nil
}

// --- omp_parallel_for: the OpenMP-outlined-function model -------------------

// ompParallelFor spawns nthreads worker threads, each entering fn with the
// register arguments (chunkLo, chunkHi, arg), and blocks the caller until all
// workers complete. Each pragma-annotated loop in an OpenMP binary compiles
// into exactly this pattern: an outlined function used as an external entry
// point on a fresh thread (§4.2: "with OpenMP, each of the pragma-annotated
// loops compile into a distinct function which acts as an entry point into a
// new thread context").
func (m *Machine) ompParallelFor(t *Thread, fn uint64, lo, hi int64, a uint64, nthreads int) error {
	if nthreads <= 0 {
		nthreads = 4
	}
	total := hi - lo
	if total <= 0 {
		return nil
	}
	if int64(nthreads) > total {
		nthreads = int(total)
	}
	remaining := nthreads
	t.State = Blocked
	chunk := (total + int64(nthreads) - 1) / int64(nthreads)
	for w := 0; w < nthreads; w++ {
		clo := lo + int64(w)*chunk
		chi := clo + chunk
		if chi > hi {
			chi = hi
		}
		nt := m.spawn(fn, [6]uint64{uint64(clo), uint64(chi), a})
		nt.wakeup = func() {
			remaining--
			if remaining == 0 {
				t.State = Runnable
			}
		}
	}
	return nil
}
