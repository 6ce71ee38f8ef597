// Package lower translates optimized PIR back into MX64 machine code and
// assembles the standalone recompiled binary.
//
// Output layout (§3.1): the original image's sections are mapped at their
// original addresses — code and data pointers in the input keep meaning —
// and the recompiled code is placed in a new executable section above them.
// At the original entry address of every external (callback-capable)
// function, a trampoline jumps to a synthesized wrapper that transitions
// from native library state to the emulated execution context (§3.3.3):
// it saves the native register file, lazily initializes the thread's TLS
// virtual-CPU block and emulated stack on first entry in a new thread
// (§3.3.2), marshals the native argument registers into the virtual state,
// invokes the lifted function, and returns the virtual rax natively.
package lower

import (
	"fmt"
	"sort"

	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/lifter"
	"repro/internal/mx"
)

// tlsInitFlagOff is the TLS offset of the per-thread "state initialized"
// flag; virtual-state globals start above it.
const tlsInitFlagOff = 0

// Result is the outcome of lowering.
type Result struct {
	Img *image.Image
	// CodeSize is the recompiled code size in bytes.
	CodeSize int
	// Fences is the number of fence instructions emitted. Zero on
	// TSO-like targets, where ir.OpFence/OpBarrier lower to nothing.
	Fences int
	// Sites is the site table: every IR memory access with a SiteID lowers
	// to exactly one tagged instruction, and Sites maps that instruction's
	// code address to the SiteID. The tagged instruction is the load or
	// store, the CMPXCHG, the LOCK XADD or XCHG of an atomic add, sub or
	// exchange, or the load of an and/or/xor atomic's CAS loop.
	// vm.Machine.RecordAccesses takes this table.
	Sites map[uint64]int
}

// Options configures lowering variants.
type Options struct {
	// Target selects the ISA description the backend emits for; nil means
	// mx.MX64. The target decides the allocatable register pool, whether
	// fences are emitted (weak ordering) or dropped (TSO), the ABI
	// registers wrappers marshal, and the state-layout constants below.
	Target *mx.Target

	// SingleThreadState places the virtual CPU state in ordinary process
	// memory instead of TLS — the McSema/BinRec/Rev.Ng state model the
	// paper contrasts with (§2.2.1: "their implementation is not general as
	// they do [not] handle the multithreaded case where each thread of
	// execution needs to work with its own emulated stack"). All threads
	// then share one virtual state and one emulated stack, placed at the
	// target's SingleStateBase (a Target layout constant, so baseline
	// variants compose with any target).
	SingleThreadState bool
}

// target resolves the configured target, defaulting to MX64.
func (o Options) target() *mx.Target {
	if o.Target != nil {
		return o.Target
	}
	return mx.MX64
}

// Lower assembles the recompiled binary for a lifted (and typically
// optimized) module. The IR module is consumed: phi destruction mutates it.
func Lower(lf *lifter.Lifted) (*Result, error) {
	return LowerWithOptions(lf, Options{})
}

// LowerWithOptions is Lower with baseline-variant knobs.
func LowerWithOptions(lf *lifter.Lifted, opts Options) (*Result, error) {
	tgt := opts.target()
	mod := lf.Mod
	out := lf.Img.Clone()
	out.Name = lf.Img.Name + ".recompiled"
	// Stamp the machine mode so the VM executes the output under the
	// target's memory model (empty for the default MX64/TSO machine).
	out.Machine = tgt.MachineMode

	// State layout: init flag first, then every thread_local global. The
	// offsets are TLS offsets normally, or offsets into a shared state
	// section under SingleThreadState.
	tlsOff := map[*ir.Global]int32{}
	next := int32(tlsInitFlagOff + 8)
	for _, g := range mod.Globals {
		if !g.ThreadLocal {
			continue
		}
		tlsOff[g] = next
		next += int32((g.Size + 7) &^ 7)
	}
	if opts.SingleThreadState {
		out.TLSSize = 0
		if err := out.AddSection(image.Section{
			Name: ".lstate", Addr: tgt.SingleStateBase, Size: uint64(next),
		}); err != nil {
			return nil, err
		}
	} else {
		out.TLSSize = uint64(next)
	}

	// Non-TLS, non-pinned globals would need a fresh data section; the
	// lifter emits none today.
	for _, g := range mod.Globals {
		if !g.ThreadLocal && g.Addr == 0 {
			return nil, fmt.Errorf("lower: global %s has no storage strategy", g.Name)
		}
	}

	env := &env{
		tgt:       tgt,
		tlsOff:    tlsOff,
		importIdx: out.ImportIndex,
		fnLabel:   func(f *ir.Func) string { return "F_" + f.Name },
	}
	if opts.SingleThreadState {
		env.stateBase = tgt.SingleStateBase
	}
	e := newEmitter(image.RecompiledBase)

	// Lowering order: stable by name for reproducible binaries.
	funcs := append([]*ir.Func(nil), mod.Funcs...)
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Name < funcs[j].Name })
	for _, f := range funcs {
		if err := lowerFunc(env, e, f); err != nil {
			return nil, fmt.Errorf("lower: %w", err)
		}
	}

	// Wrappers for external entry points.
	rspG := mod.Global("vr_rsp")
	raxG := mod.Global("vr_rax")
	if rspG == nil || raxG == nil {
		return nil, fmt.Errorf("lower: virtual rsp/rax globals missing")
	}
	argG := make([]*ir.Global, len(tgt.ArgRegs))
	for i, r := range tgt.ArgRegs {
		argG[i] = mod.Global("vr_" + r.String())
		if argG[i] == nil {
			return nil, fmt.Errorf("lower: virtual %s global missing", r)
		}
	}
	var wrapped []*ir.Func
	for _, f := range funcs {
		if f.External && f.OrigEntry != 0 {
			wrapped = append(wrapped, f)
			emitWrapper(e, env, f, tlsOff[rspG], tlsOff[raxG], argG, tlsOff)
		}
	}

	code, labels, sites, err := e.assemble()
	if err != nil {
		return nil, err
	}
	if err := out.AddSection(image.Section{
		Name: ".ltext", Addr: image.RecompiledBase, Data: code, Exec: true,
	}); err != nil {
		return nil, err
	}

	// Trampolines: overwrite each wrapped function's original entry with a
	// jump to its wrapper.
	text := out.Text()
	entries := make([]uint64, 0, len(wrapped))
	for _, f := range wrapped {
		entries = append(entries, f.OrigEntry)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })
	jmpLen := uint64(mx.EncodedLen(mx.JMP))
	for i, f := range wrapped {
		_ = i
		entry := f.OrigEntry
		wAddr, ok := labels["W_"+f.Name]
		if !ok {
			return nil, fmt.Errorf("lower: wrapper for %s not assembled", f.Name)
		}
		off := entry - text.Addr
		if off+jmpLen > uint64(len(text.Data)) {
			return nil, fmt.Errorf("lower: no room for trampoline at %#x", entry)
		}
		// Refuse to clobber a later function's entry byte.
		pos := sort.Search(len(entries), func(k int) bool { return entries[k] > entry })
		if pos < len(entries) && entries[pos] < entry+jmpLen {
			return nil, fmt.Errorf("lower: function at %#x too small for a trampoline", entry)
		}
		disp := int64(wAddr) - int64(entry+jmpLen)
		if int64(int32(disp)) != disp {
			return nil, fmt.Errorf("lower: trampoline displacement out of range")
		}
		tramp := mx.Inst{Op: mx.JMP, Disp: int32(disp)}.Encode(nil)
		copy(text.Data[off:], tramp)
	}

	return &Result{Img: out, CodeSize: len(code), Fences: env.fences, Sites: sites}, nil
}

// emitWrapper synthesizes the native->emulated transition wrapper for f.
// Wrappers are ABI edges: they preserve the target's full SavedRegs file
// (everything except rax — the native return slot — and rsp) and marshal
// the target's native argument registers, regardless of how small the
// target's allocatable pool is.
func emitWrapper(e *emitter, env *env, f *ir.Func, rspOff, raxOff int32, argG []*ir.Global, tlsOff map[*ir.Global]int32) {
	savedRegs := env.tgt.SavedRegs
	e.label("W_" + f.Name)
	for _, r := range savedRegs {
		e.emit(mx.Inst{Op: mx.PUSH, Dst: r})
	}
	env.emitStateBase(e)
	// Lazy per-thread initialization: allocate the emulated stack on first
	// entry in this thread.
	done := e.freshLabel("init_done_" + f.Name)
	e.emit(mx.Inst{Op: mx.LOAD64, Dst: mx.R10, Base: mx.R15, Disp: tlsInitFlagOff})
	e.emit(mx.Inst{Op: mx.TESTRR, Dst: mx.R10, Src: mx.R10})
	e.jcc(mx.CondNE, done)
	e.emit(mx.Inst{Op: mx.CALLX, Ext: env.importIdx("__polynima_thread_init")})
	e.emit(mx.Inst{Op: mx.STOREI64, Base: mx.R15, Disp: tlsInitFlagOff, Imm: 1})
	e.emit(mx.Inst{Op: mx.STORE64, Dst: mx.RAX, Base: mx.R15, Disp: rspOff})
	e.label(done)
	// Marshal native argument registers into the virtual state. (The
	// pushes above did not clobber them.)
	for i, r := range env.tgt.ArgRegs {
		e.emit(mx.Inst{Op: mx.STORE64, Dst: r, Base: mx.R15, Disp: tlsOff[argG[i]]})
	}
	// Reserve the return-address slot the lifted RET will pop.
	e.emit(mx.Inst{Op: mx.LOAD64, Dst: mx.R10, Base: mx.R15, Disp: rspOff})
	e.emit(mx.Inst{Op: mx.SUBRI, Dst: mx.R10, Imm: 8})
	e.emit(mx.Inst{Op: mx.STORE64, Dst: mx.R10, Base: mx.R15, Disp: rspOff})
	e.emit(mx.Inst{Op: mx.STOREI64, Base: mx.R10, Imm: 0})
	e.call(env.fnLabel(f))
	// Marshal the virtual rax back as the native return value.
	env.emitStateBase(e)
	e.emit(mx.Inst{Op: mx.LOAD64, Dst: mx.RAX, Base: mx.R15, Disp: raxOff})
	for i := len(savedRegs) - 1; i >= 0; i-- {
		e.emit(mx.Inst{Op: mx.POP, Dst: savedRegs[i]})
	}
	e.emit(mx.Inst{Op: mx.RET})
}
