// Package ir defines PIR, the typed SSA intermediate representation the
// recompiler lifts machine code into — the reproduction's stand-in for
// LLVM IR.
//
// PIR has the features the paper's techniques depend on:
//
//   - a single 64-bit integer value type, with memory accesses of width
//     1/4/8 bytes (loads zero/sign-extend like the source ISA);
//   - globals, optionally thread_local (the virtual CPU state: registers,
//     flags, emulated stack pointer are thread_local globals, §3.3.2);
//   - atomic read-modify-write and compare-exchange instructions with
//     sequentially consistent ordering, plus acquire/release fences and
//     compiler-only barriers (§3.3.1, §3.3.4) — fences and barriers emit no
//     machine code on same-ISA lowering but constrain the optimizer;
//   - calls to lifted functions (state passed through the thread-local
//     globals) and to external library functions with explicit register
//     arguments;
//   - switch terminators used to dispatch indirect control transfers over
//     their known-target sets, with a default edge to the control-flow-miss
//     handler (additive lifting, §3.2).
//
// Each value lists its users (def-use lists, kept by the operand helpers).
// The package also provides dominator trees and natural-loop detection
// (dom.go), a verifier (verify.go) and a printer (print.go); the
// optimization passes live in internal/opt and the spinloop analysis in
// internal/spindet.
package ir

import "fmt"

// Op is a PIR operation.
type Op uint8

const (
	OpInvalid Op = iota

	// Pure values.
	OpConst      // Const
	OpGlobalAddr // Global
	OpFuncAddr   // Fn
	OpUndef

	// Integer arithmetic (64-bit, wrapping).
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLshr
	OpAshr
	OpNeg
	OpNot

	OpICmp   // Pred; yields 0/1
	OpSelect // args: cond, a, b

	// Memory.
	OpLoad  // args: addr; Width
	OpStore // args: addr, value; Width; no result

	// Virtual CPU state access (thread_local register/flag globals). These
	// are distinguished from OpLoad/OpStore because registers are not
	// addressable: virtual-state traffic never aliases guest memory, so the
	// promotion pass can rebuild SSA over it without alias analysis, and the
	// Lasagne fence rules apply only to original-program accesses (§3.3.4).
	OpVRegLoad  // Global; result
	OpVRegStore // Global; args: value

	// Atomics & ordering.
	OpAtomicRMW // args: addr, operand; RMW kind; returns old value
	OpCmpXchg   // args: addr, expected, new; returns old value
	OpFence     // Order (acquire/release/seq_cst); no result
	OpBarrier   // compiler-only scheduling barrier; no result

	// Calls.
	OpCall    // Fn; args (runtime helpers); may return a value
	OpCallExt // ExtName; args (native register args); returns rax

	OpPhi // Args parallel to PhiPreds

	// Terminators.
	OpBr          // Targets[0]
	OpCondBr      // args: cond; Targets[0]=then, Targets[1]=else
	OpSwitch      // args: value; Targets[0]=default, Targets[1:] parallel to SwitchVals
	OpRet         // optional arg: return value (runtime helpers); lifted funcs ret void
	OpUnreachable // control-flow miss fallthrough / trap
)

var opNames = map[Op]string{
	OpConst: "const", OpGlobalAddr: "gaddr", OpFuncAddr: "faddr", OpUndef: "undef",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpSRem: "srem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpLshr: "lshr",
	OpAshr: "ashr", OpNeg: "neg", OpNot: "not",
	OpICmp: "icmp", OpSelect: "select",
	OpLoad: "load", OpStore: "store",
	OpVRegLoad: "vload", OpVRegStore: "vstore",
	OpAtomicRMW: "atomicrmw", OpCmpXchg: "cmpxchg", OpFence: "fence",
	OpBarrier: "barrier",
	OpCall:    "call", OpCallExt: "callext",
	OpPhi: "phi",
	OpBr:  "br", OpCondBr: "condbr", OpSwitch: "switch", OpRet: "ret",
	OpUnreachable: "unreachable",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// Pred is an integer comparison predicate.
type Pred uint8

const (
	PredEQ Pred = iota
	PredNE
	PredSLT
	PredSLE
	PredSGT
	PredSGE
	PredULT
	PredULE
	PredUGT
	PredUGE
)

var predNames = [...]string{"eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge"}

func (p Pred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return "pred?"
}

// RMWKind is the operation of an atomicrmw.
type RMWKind uint8

const (
	RMWAdd RMWKind = iota
	RMWSub
	RMWAnd
	RMWOr
	RMWXor
	RMWXchg
)

var rmwNames = [...]string{"add", "sub", "and", "or", "xor", "xchg"}

func (k RMWKind) String() string {
	if int(k) < len(rmwNames) {
		return rmwNames[k]
	}
	return "rmw?"
}

// Order is a memory ordering for fences (atomics are always seq_cst here,
// matching the lifter's translation of lock-prefixed instructions).
type Order uint8

const (
	OrderAcquire Order = iota
	OrderRelease
	OrderSeqCst
)

var orderNames = [...]string{"acquire", "release", "seq_cst"}

func (o Order) String() string {
	if int(o) < len(orderNames) {
		return orderNames[o]
	}
	return "order?"
}

// Global is a module-level variable.
type Global struct {
	Name        string
	Size        uint64
	ThreadLocal bool
	// Addr pins the global at a fixed guest address (originals: the input
	// binary's sections are mapped at their original addresses). Zero means
	// the lowering assigns storage (new data for process globals, a TLS
	// offset for thread_local ones).
	Addr uint64
	Init []byte
}

// Value is an SSA value / instruction. Instructions are values; values with
// no result (stores, fences, terminators) still appear in the instruction
// stream but must not be referenced as operands.
type Value struct {
	ID    int
	Op    Op
	Args  []*Value
	Block *Block

	Const      int64
	Global     *Global
	Fn         *Func
	ExtName    string
	Width      int // 1, 4, or 8 (memory ops)
	SignExt    bool
	Pred       Pred
	RMW        RMWKind
	Order      Order
	Targets    []*Block
	SwitchVals []int64
	PhiPreds   []*Block // parallel to Args for OpPhi

	// StackLocal marks memory accesses whose address derives directly from
	// the emulated stack pointer (§3.3.4): they get no fences and are known
	// thread-exclusive by the spinloop analysis.
	StackLocal bool
	// SiteID identifies a memory access site for dynamic recording
	// (spinloop detection, §3.4.2). Zero means not recorded.
	SiteID int
	// OrigPC is the original-binary instruction address this value was
	// lifted from (0 for synthesized values); used for diagnostics and for
	// mapping analysis results back to machine code.
	OrigPC uint64

	// uses lists the instructions naming v as an operand, one entry per
	// operand slot, in no particular order. The operand helpers below keep
	// it current, so Args must only be written through them.
	uses []*Value
}

// NumUses returns the number of operand slots, across the instructions of
// v's function, that name v.
func (v *Value) NumUses() int { return len(v.uses) }

// SetArgs replaces v's operands. With no arguments it drops every use v
// holds, as an instruction leaving its function other than through
// Block.RemoveAt must.
func (v *Value) SetArgs(args ...*Value) {
	for _, a := range v.Args {
		a.dropUse(v)
	}
	v.Args = args
	for _, a := range args {
		a.addUse(v)
	}
}

// SetArg replaces operand i of v.
func (v *Value) SetArg(i int, a *Value) {
	if v.Args[i] != a {
		v.Args[i].dropUse(v)
		v.Args[i] = a
		a.addUse(v)
	}
}

// AddArg appends an operand (phi construction).
func (v *Value) AddArg(a *Value) {
	v.Args = append(v.Args, a)
	a.addUse(v)
}

// RemoveArg deletes operand i of v, shifting the later ones down.
func (v *Value) RemoveArg(i int) {
	v.Args[i].dropUse(v)
	v.Args = append(v.Args[:i], v.Args[i+1:]...)
}

func (v *Value) addUse(user *Value) {
	if v != nil {
		v.uses = append(v.uses, user)
	}
}

// dropUse deletes one of user's entries by swapping the last entry in.
func (v *Value) dropUse(user *Value) {
	if v == nil {
		return
	}
	for i, u := range v.uses {
		if u == user {
			last := len(v.uses) - 1
			v.uses[i], v.uses[last] = v.uses[last], nil
			v.uses = v.uses[:last]
			return
		}
	}
}

// HasResult reports whether v produces an SSA result.
func (v *Value) HasResult() bool {
	switch v.Op {
	case OpStore, OpVRegStore, OpFence, OpBarrier, OpBr, OpCondBr, OpSwitch, OpRet, OpUnreachable:
		return false
	case OpCall:
		return v.Fn != nil && v.Fn.HasResult
	}
	return true
}

// IsTerminator reports whether v ends a block.
func (v *Value) IsTerminator() bool {
	switch v.Op {
	case OpBr, OpCondBr, OpSwitch, OpRet, OpUnreachable:
		return true
	}
	return false
}

// Block is a basic block.
type Block struct {
	Name  string
	Func  *Func
	Insts []*Value
	// OrigAddr is the original machine-code address this block was lifted
	// from (0 for synthesized blocks). The PC-to-block switch dispatch maps
	// original addresses to these blocks.
	OrigAddr uint64
}

// Term returns the block terminator, or nil if the block is unterminated.
func (b *Block) Term() *Value {
	if len(b.Insts) == 0 {
		return nil
	}
	t := b.Insts[len(b.Insts)-1]
	if !t.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Targets
}

// Func is a PIR function.
type Func struct {
	Name   string
	Mod    *Module
	Blocks []*Block // entry first
	// External marks the function as a possible external entry point
	// (callback); such functions must keep their wrappers and may not be
	// removed or inlined away (§3.3.3).
	External bool
	// HasResult marks runtime-helper-style functions that return a value.
	// Lifted original functions communicate through the virtual state and
	// return void.
	HasResult bool
	// NumParams is the number of (register-like) parameters for helper
	// functions; lifted functions take none.
	NumParams int
	// OrigEntry is the original-binary entry address for lifted functions.
	OrigEntry uint64
	// IsWrapper marks synthesized callback wrappers.
	IsWrapper bool

	nextID int
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NewBlock appends a new block to f.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{Name: name, Func: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewValue creates a value owned by f (not yet placed in a block).
func (f *Func) NewValue(op Op) *Value {
	f.nextID++
	return &Value{ID: f.nextID, Op: op}
}

// NewValueLike creates a value owned by f with v's op and attributes and
// its own copies of v's Targets, SwitchVals and PhiPreds, but no block,
// operands or uses.
func (f *Func) NewValueLike(v *Value) *Value {
	nv := f.NewValue(v.Op)
	id := nv.ID
	*nv = *v
	nv.ID, nv.Block, nv.Args, nv.uses = id, nil, nil, nil
	nv.Targets = append([]*Block(nil), v.Targets...)
	nv.SwitchVals = append([]int64(nil), v.SwitchVals...)
	nv.PhiPreds = append([]*Block(nil), v.PhiPreds...)
	return nv
}

// Append creates a value and appends it to block b.
func (b *Block) Append(op Op, args ...*Value) *Value {
	v := b.Func.NewValue(op)
	v.SetArgs(args...)
	v.Block = b
	b.Insts = append(b.Insts, v)
	return v
}

// InsertBefore inserts v into b before position idx.
func (b *Block) InsertBefore(v *Value, idx int) {
	v.Block = b
	b.Insts = append(b.Insts, nil)
	copy(b.Insts[idx+1:], b.Insts[idx:])
	b.Insts[idx] = v
}

// RemoveAt deletes the instruction at idx from the function: its operands
// no longer list it as a user. Its Args are left as they were.
func (b *Block) RemoveAt(idx int) {
	v := b.Insts[idx]
	for _, a := range v.Args {
		a.dropUse(v)
	}
	b.Insts = append(b.Insts[:idx], b.Insts[idx+1:]...)
}

// Module is a compilation unit.
type Module struct {
	Name    string
	Funcs   []*Func
	Globals []*Global

	byName  map[string]*Func
	gByName map[string]*Global
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, byName: map[string]*Func{}, gByName: map[string]*Global{}}
}

// NewFunc creates and registers a function.
func (m *Module) NewFunc(name string) *Func {
	f := &Func{Name: name, Mod: m}
	m.Funcs = append(m.Funcs, f)
	m.byName[name] = f
	return f
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func { return m.byName[name] }

// NewGlobal creates and registers a global.
func (m *Module) NewGlobal(name string, size uint64) *Global {
	g := &Global{Name: name, Size: size}
	m.Globals = append(m.Globals, g)
	m.gByName[name] = g
	return g
}

// Global returns the named global, or nil.
func (m *Module) Global(name string) *Global { return m.gByName[name] }

// Preds computes the predecessor map for f.
func Preds(f *Func) map[*Block][]*Block {
	preds := map[*Block][]*Block{}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// ReplaceAllUses rewrites every operand slot naming old to name new. It
// walks only old's use list, which it hands over to new.
func ReplaceAllUses(old, new *Value) {
	if old == new {
		return
	}
	for _, u := range old.uses {
		for i, a := range u.Args {
			if a == old {
				u.Args[i] = new
			}
		}
	}
	new.uses = append(new.uses, old.uses...)
	old.uses = nil
}
