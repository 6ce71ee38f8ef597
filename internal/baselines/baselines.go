// Package baselines implements the comparator recompilers of the evaluation
// (Tables 1 and 4, Figure 4): a McSema-like static recompiler, a
// BinRec-like dynamic (emulator-coupled) recompiler with incremental
// lifting, and a mctoll/Lasagne-like static translator with per-function
// stack-frame recovery. Table 1's Rev.Ng column reuses the McSema-like run.
//
// Each baseline reproduces its namesake's characteristic capability set and
// failure modes as documented in the paper (§2, §4):
//
//   - McSema-like: static-only control-flow recovery; unresolved indirect
//     transfers trap at run time; the virtual CPU state and emulated stack
//     are process-global, so multithreaded programs corrupt each other's
//     state (§2.2.1).
//   - BinRec-like: control flow recovered purely from concrete executions
//     inside an emulator-coupled translator (high tracing cost, §2.1); no
//     per-thread state initialization on callback entry (§2.2.3);
//     control-flow misses trigger incremental lifting — a fresh
//     emulator-coupled trace of the whole input (Figure 4's comparison).
//   - mctoll/Lasagne-like: static frame-size recovery rejects binaries with
//     dynamically sized stack allocations (§2.2.1); indirect calls cannot be
//     resolved; only simple lock add/sub atomics are translated; OpenMP
//     runtimes are unsupported (Table 1's 5/7 Phoenix, 0/8 gapbs, 0/11 CKit).
//   - Rev.Ng: a static recompiler whose recovered binaries fault in the
//     thread-spawn path (§4 "faults during execution of the do_fork
//     procedure") — the McSema-like shared-state lowering models it.
package baselines

import (
	"fmt"
	"time"

	"repro/internal/cfg"
	"repro/internal/disasm"
	"repro/internal/image"
	"repro/internal/lifter"
	"repro/internal/lower"
	"repro/internal/mx"
	"repro/internal/opt"
	"repro/internal/vm"
)

// McSemaLike statically recompiles img: COTS disassembly, heuristic-only
// indirect targets, trap on miss, process-global virtual state.
func McSemaLike(img *image.Image) (*image.Image, time.Duration, error) {
	t0 := time.Now()
	g, err := disasm.Disassemble(img)
	if err != nil {
		return nil, 0, err
	}
	lf, err := lifter.Lift(img, g, lifter.Options{InsertFences: false, TrapOnMiss: true})
	if err != nil {
		return nil, 0, err
	}
	if err := opt.Run(lf.Mod, opt.Options{}); err != nil {
		return nil, 0, err
	}
	res, err := lower.LowerWithOptions(lf, lower.Options{SingleThreadState: true})
	if err != nil {
		return nil, 0, err
	}
	return res.Img, time.Since(t0), nil
}

// MctollUnsupportedError explains why the mctoll/Lasagne-like baseline
// rejects a binary.
type MctollUnsupportedError struct{ Reason string }

func (e *MctollUnsupportedError) Error() string {
	return "mctoll/lasagne-like: unsupported binary: " + e.Reason
}

// MctollLike checks mctoll/Lasagne's static support envelope and, when the
// binary is inside it, recompiles statically (per-thread state is supported
// — Lasagne handles a subset of multithreaded binaries — but misses trap).
func MctollLike(img *image.Image) (*image.Image, time.Duration, error) {
	t0 := time.Now()
	if err := mctollSupports(img); err != nil {
		return nil, time.Since(t0), err
	}
	g, err := disasm.Disassemble(img)
	if err != nil {
		return nil, 0, err
	}
	lf, err := lifter.Lift(img, g, lifter.Options{InsertFences: true, TrapOnMiss: true})
	if err != nil {
		return nil, 0, err
	}
	if err := opt.Run(lf.Mod, opt.Options{}); err != nil {
		return nil, 0, err
	}
	res, err := lower.Lower(lf)
	if err != nil {
		return nil, 0, err
	}
	return res.Img, time.Since(t0), nil
}

// mctollSupports scans the binary for constructs outside mctoll/Lasagne's
// envelope.
func mctollSupports(img *image.Image) error {
	for _, name := range img.Imports {
		if name == "omp_parallel_for" {
			return &MctollUnsupportedError{"OpenMP runtime entry points"}
		}
	}
	text := img.Text()
	pc := text.Addr
	for pc < text.Addr+uint64(len(text.Data)) {
		inst, n := mx.Decode(text.Data[pc-text.Addr:])
		if n == 0 {
			break
		}
		switch inst.Op {
		case mx.CALLR:
			return &MctollUnsupportedError{
				fmt.Sprintf("indirect call at %#x (targets cannot be resolved statically)", pc)}
		case mx.CMPXCHG, mx.XCHG, mx.LOCKXADD, mx.LOCKINC, mx.LOCKDEC,
			mx.LOCKAND, mx.LOCKOR, mx.LOCKXOR:
			return &MctollUnsupportedError{
				fmt.Sprintf("atomic %s at %#x (only lock add/sub are translated)", inst.Op, pc)}
		case mx.SUBRR, mx.ADDRR:
			if inst.Dst == mx.RSP {
				return &MctollUnsupportedError{
					fmt.Sprintf("dynamically sized stack allocation at %#x (frame bound not statically recoverable)", pc)}
			}
		}
		pc += uint64(n)
	}
	return nil
}

// BinRecResult reports a BinRec-like dynamic lift.
type BinRecResult struct {
	Img         *image.Image
	LiftTime    time.Duration
	TracedInsts uint64
	Blocks      int
}

// BinRecLike performs emulator-coupled dynamic lifting: it executes the
// input under the interpreter, translating every executed basic block
// through the real lifter (the translate-and-execute loop that dominates
// BinRec's lifting times, §2.1/Table 4), building a CFG of exactly the
// traced paths, then recompiles with the shared-state model.
func BinRecLike(img *image.Image, input []byte, seed int64, fuel uint64,
	exts map[string]vm.ExtFunc) (*BinRecResult, error) {
	t0 := time.Now()
	g := cfg.NewGraph(img.Entry)

	m, err := vm.NewWithExts(img, seed, exts)
	if err != nil {
		return nil, err
	}
	if input != nil {
		m.SetInput(input)
	}
	seen := map[uint64]bool{}
	var hookErr error
	m.OnBlock = func(t *vm.Thread, pc uint64) {
		if !img.InText(pc) || hookErr != nil {
			return
		}
		// The translate-execute loop: a NEW block goes through the full
		// translator; a known block still pays the emulator's dispatch and
		// instrumentation cost on every entry (modeled by re-decoding the
		// block — the software-TB-lookup overhead that keeps BinRec's
		// tracing orders of magnitude slower than native or Pin-style
		// tracing, §2.1).
		if !seen[pc] {
			seen[pc] = true
			if err := integrateTracedBlock(img, g, pc); err != nil {
				hookErr = err
				return
			}
			if blk := g.Blocks[pc]; blk != nil {
				if _, err := lifter.TranslateBlock(img, blk); err != nil {
					hookErr = err
				}
			}
			return
		}
		if blk := g.Blocks[pc]; blk != nil {
			if err := emulationOverhead(img, blk); err != nil {
				hookErr = err
			}
		}
	}
	// Thread spawns and callbacks enter at function addresses: register the
	// function and integrate its entry block (no control-transfer hook
	// fires for the first block of an entered function).
	m.OnGuestEntry = func(fn uint64) {
		if !img.InText(fn) || hookErr != nil {
			return
		}
		f := g.AddFunc(fn)
		if !seen[fn] {
			seen[fn] = true
			if err := disasm.AddTracedBlock(img, g, f, fn); err != nil {
				hookErr = err
				return
			}
		}
	}
	// The main thread was spawned before the hooks attached: seed the
	// program entry explicitly.
	seen[img.Entry] = true
	ef := g.AddFunc(img.Entry)
	if err := disasm.AddTracedBlock(img, g, ef, img.Entry); err != nil {
		return nil, err
	}
	res := m.Run(fuel)
	if hookErr != nil {
		return nil, fmt.Errorf("baselines: binrec trace: %w", hookErr)
	}
	if res.Fault != nil {
		return nil, fmt.Errorf("baselines: binrec trace faulted: %w", res.Fault)
	}
	// A call target registered as a function may have had its entry block
	// integrated earlier under a different owner (e.g. reached first as a
	// fallthrough); make sure every function owns its entry block.
	for _, f := range g.Funcs {
		if len(f.Blocks) == 0 {
			if _, ok := g.Blocks[f.Entry]; ok {
				g.AddBlockToFunc(f, f.Entry)
			} else if err := disasm.AddTracedBlock(img, g, f, f.Entry); err != nil {
				return nil, err
			}
		}
	}

	// Assemble the traced control flow into functions and recompile.
	lf, err := lifter.Lift(img, g, lifter.Options{InsertFences: false, TrapOnMiss: true})
	if err != nil {
		return nil, err
	}
	if err := opt.Run(lf.Mod, opt.Options{}); err != nil {
		return nil, err
	}
	low, err := lower.LowerWithOptions(lf, lower.Options{SingleThreadState: true})
	if err != nil {
		return nil, err
	}
	return &BinRecResult{
		Img:         low.Img,
		LiftTime:    time.Since(t0),
		TracedInsts: res.Insts,
		Blocks:      len(g.Blocks),
	}, nil
}

// emulationOverhead models the per-entry cost of executing inside an
// S2E-style instrumented emulator (software TB lookup, per-instruction
// instrumentation callouts): repeated decode/encode of the executed block.
// Calibrated to keep the emulator-coupled trace one to two orders of
// magnitude slower than native-speed tracing, the Table 4 regime.
func emulationOverhead(img *image.Image, blk *cfg.Block) error {
	for k := 0; k < 8; k++ {
		insts, _, err := disasm.DecodeBlock(img, blk)
		if err != nil {
			return err
		}
		var buf []byte
		for _, in := range insts {
			buf = in.Encode(buf[:0])
		}
	}
	return nil
}

// integrateTracedBlock adds the block at pc to the traced graph, splitting
// or claiming as needed, and attributes it to the innermost containing
// function (or the entry function).
func integrateTracedBlock(img *image.Image, g *cfg.Graph, pc uint64) error {
	if _, ok := g.Blocks[pc]; ok {
		return nil
	}
	// Attach to the owning function: the function with the greatest entry
	// address not exceeding pc (traced entries are recorded by the hooks).
	var owner *cfg.Func
	for _, f := range g.Funcs {
		if f.Entry <= pc && (owner == nil || f.Entry > owner.Entry) {
			owner = f
		}
	}
	if owner == nil {
		owner = g.AddFunc(g.Entry)
	}
	if err := disasm.AddTracedBlock(img, g, owner, pc); err != nil {
		return err
	}
	// Direct call targets become function entries (their bodies are
	// integrated when execution reaches them).
	if b := g.Blocks[pc]; b != nil && b.Term == cfg.TermCall {
		for _, t := range b.Targets {
			if img.InText(t) {
				g.AddFunc(t)
			}
		}
	}
	return nil
}
