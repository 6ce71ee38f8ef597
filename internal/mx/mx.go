// Package mx defines MX64, the machine ISA targeted by this repository.
//
// MX64 is a byte-encoded, variable-length, x86-64-flavoured instruction set:
// sixteen 64-bit general-purpose registers (with the usual rax..r15 aliases),
// an EFLAGS subset (ZF/SF/CF/OF), lock-prefixed read-modify-write and
// compare-exchange instructions, indirect jumps and calls, memory-indirect
// jump tables, and a small packed-SIMD extension (eight 4x64-bit vector
// registers). It stands in for x86/x64 in the Polynima reproduction: the
// properties the recompiler targets — disassembly ambiguity, indirect control
// flow, hardware atomics, per-thread stacks — are properties of this encoding
// and of the execution model in package vm.
//
// Instructions are encoded as a one-byte opcode followed by an
// opcode-determined operand layout (see layouts). Encode and Decode are exact
// inverses for every valid instruction, a property the package tests verify
// exhaustively and with testing/quick.
package mx

import (
	"encoding/binary"
	"fmt"
)

// Reg is a general-purpose register number (0..15) or a vector register
// number (0..7) depending on the operand slot it appears in.
type Reg uint8

// General-purpose registers, numbered as on x86-64.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	NumRegs = 16
)

// NumVRegs is the number of vector registers (V0..V7, each 4x64 bits).
const NumVRegs = 8

// VectorWidth is the number of 64-bit lanes in a vector register.
const VectorWidth = 4

var regNames = [...]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// Cond is a branch/set condition, evaluated against the flags register.
type Cond uint8

// Conditions. Signed comparisons use SF/OF, unsigned use CF, equality uses ZF.
const (
	CondE    Cond = iota // equal (ZF)
	CondNE               // not equal (!ZF)
	CondL                // signed less (SF != OF)
	CondLE               // signed less-or-equal
	CondG                // signed greater
	CondGE               // signed greater-or-equal
	CondB                // unsigned below (CF)
	CondBE               // unsigned below-or-equal
	CondA                // unsigned above
	CondAE               // unsigned above-or-equal
	CondS                // sign (SF)
	CondNS               // no sign (!SF)
	NumConds = 12
)

var condNames = [...]string{"e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae", "s", "ns"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cc?%d", uint8(c))
}

var condNegations = [NumConds]Cond{
	CondE: CondNE, CondNE: CondE,
	CondL: CondGE, CondGE: CondL,
	CondLE: CondG, CondG: CondLE,
	CondB: CondAE, CondAE: CondB,
	CondBE: CondA, CondA: CondBE,
	CondS: CondNS, CondNS: CondS,
}

// Negate returns the condition that is true exactly when c is false.
func (c Cond) Negate() Cond {
	if c < NumConds {
		return condNegations[c]
	}
	return c
}

// Op is an MX64 opcode.
type Op uint8

// Opcodes. The zero value is deliberately invalid so that zeroed memory
// decodes as an illegal instruction, as on real hardware it usually would.
const (
	BAD Op = iota // illegal instruction

	// Data movement.
	MOVRR   // dst <- src
	MOVRI   // dst <- imm64
	LEA     // dst <- base + disp
	LEAIDX  // dst <- base + idx*scale + disp
	LOAD8   // dst <- zx(mem8[base+disp])
	LOAD32  // dst <- sx(mem32[base+disp])
	LOAD64  // dst <- mem64[base+disp]
	STORE8  // mem8[base+disp] <- src
	STORE32 // mem32[base+disp] <- src
	STORE64 // mem64[base+disp] <- src
	STOREI8
	STOREI32 // mem32[base+disp] <- imm32
	STOREI64 // mem64[base+disp] <- sx(imm32)
	LOADIDX8
	LOADIDX32 // dst <- sx(mem32[base+idx*scale+disp])
	LOADIDX64
	STOREIDX8
	STOREIDX32
	STOREIDX64

	// ALU, register-register. All set ZF/SF; ADD/SUB/CMP also set CF/OF.
	ADDRR
	SUBRR
	ANDRR
	ORRR
	XORRR
	SHLRR
	SHRRR
	SARRR
	IMULRR
	DIVRR // signed quotient; traps on divide-by-zero
	MODRR // signed remainder
	CMPRR
	TESTRR

	// ALU, register-immediate (imm32, sign-extended).
	ADDRI
	SUBRI
	ANDRI
	ORRI
	XORRI
	SHLRI
	SHRRI
	SARRI
	IMULRI
	CMPRI
	TESTRI

	// Unary.
	NEG
	NOT
	SETCC // dst <- cond ? 1 : 0

	// Control flow. Relative displacements are from the end of the insn.
	JMP   // rel32
	JCC   // cc, rel32
	JMPR  // indirect jump to register
	JMPM  // indirect jump to mem64[base + idx*8 + disp] (jump table)
	CALL  // rel32
	CALLR // indirect call to register
	RET
	PUSH
	POP
	CALLX   // call external import #ext
	SYSCALL // raw system call (unsupported by the lifter, per the paper)
	HLT     // halt the machine (process exit)
	NOP
	UD2 // explicit undefined instruction

	// Hardware atomics (all 64-bit, lock-prefixed semantics).
	LOCKADD  // mem64[base+disp] atomically += src
	LOCKSUB  // atomically -=; sets ZF from result
	LOCKAND  // atomically &=
	LOCKOR   // atomically |=
	LOCKXOR  // atomically ^=
	LOCKXADD // old <- mem; mem += src; src(reg) <- old (exchange-add)
	LOCKINC  // mem64 atomically ++; sets ZF from result
	LOCKDEC  // mem64 atomically --; sets ZF from result
	XCHG     // atomically swap src(reg) and mem64[base+disp]
	CMPXCHG  // if rax==mem {mem<-src; ZF=1} else {rax<-mem; ZF=0}, atomic
	MFENCE   // full memory fence

	// Thread-local storage.
	TLSBASE // dst <- this thread's TLS base address

	// Packed SIMD (4x64-bit lanes; dst/src in the vector register file).
	VLOAD  // vdst <- mem256[base+disp]
	VSTORE // mem256[base+disp] <- vsrc
	VADD   // vdst += vsrc, lanewise
	VMUL   // vdst *= vsrc, lanewise
	VBCAST // vdst lanes <- src (GPR)
	VHADD  // dst (GPR) <- sum of vsrc lanes

	NumOps
)

var opNames = [...]string{
	BAD:   "bad",
	MOVRR: "mov", MOVRI: "mov", LEA: "lea", LEAIDX: "lea",
	LOAD8: "load8", LOAD32: "load32", LOAD64: "load64",
	STORE8: "store8", STORE32: "store32", STORE64: "store64",
	STOREI8: "storei8", STOREI32: "storei32", STOREI64: "storei64",
	LOADIDX8: "load8", LOADIDX32: "load32", LOADIDX64: "load64",
	STOREIDX8: "store8", STOREIDX32: "store32", STOREIDX64: "store64",
	ADDRR: "add", SUBRR: "sub", ANDRR: "and", ORRR: "or", XORRR: "xor",
	SHLRR: "shl", SHRRR: "shr", SARRR: "sar", IMULRR: "imul",
	DIVRR: "div", MODRR: "mod", CMPRR: "cmp", TESTRR: "test",
	ADDRI: "add", SUBRI: "sub", ANDRI: "and", ORRI: "or", XORRI: "xor",
	SHLRI: "shl", SHRRI: "shr", SARRI: "sar", IMULRI: "imul",
	CMPRI: "cmp", TESTRI: "test",
	NEG: "neg", NOT: "not", SETCC: "set",
	JMP: "jmp", JCC: "j", JMPR: "jmp", JMPM: "jmp",
	CALL: "call", CALLR: "call", RET: "ret",
	PUSH: "push", POP: "pop", CALLX: "callx", SYSCALL: "syscall",
	HLT: "hlt", NOP: "nop", UD2: "ud2",
	LOCKADD: "lock add", LOCKSUB: "lock sub", LOCKAND: "lock and",
	LOCKOR: "lock or", LOCKXOR: "lock xor", LOCKXADD: "lock xadd",
	LOCKINC: "lock inc", LOCKDEC: "lock dec",
	XCHG: "xchg", CMPXCHG: "lock cmpxchg", MFENCE: "mfence",
	TLSBASE: "tlsbase",
	VLOAD:   "vload", VSTORE: "vstore", VADD: "vadd", VMUL: "vmul",
	VBCAST: "vbcast", VHADD: "vhadd",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// Layout describes how an opcode's operands are encoded after the opcode
// byte. Each opcode has exactly one layout.
type Layout uint8

const (
	LayoutNone   Layout = iota // no operands
	LayoutR                    // dst
	LayoutRR                   // dst, src
	LayoutRI                   // dst, imm32 (sign-extended into Imm)
	LayoutRI64                 // dst, imm64
	LayoutRCc                  // dst, cc (SETCC)
	LayoutMem                  // dst|src, base, disp32
	LayoutMemI                 // base, disp32, imm32
	LayoutMemIdx               // dst|src, base, idx, scale, disp32
	LayoutRel                  // disp32 (branch target, relative to end)
	LayoutCcRel                // cc, disp32
	LayoutJmpM                 // base, idx, disp32
	LayoutExt                  // ext (uint16 import index)
)

var opLayouts = [NumOps]Layout{
	BAD:   LayoutNone,
	MOVRR: LayoutRR, MOVRI: LayoutRI64, LEA: LayoutMem, LEAIDX: LayoutMemIdx,
	LOAD8: LayoutMem, LOAD32: LayoutMem, LOAD64: LayoutMem,
	STORE8: LayoutMem, STORE32: LayoutMem, STORE64: LayoutMem,
	STOREI8: LayoutMemI, STOREI32: LayoutMemI, STOREI64: LayoutMemI,
	LOADIDX8: LayoutMemIdx, LOADIDX32: LayoutMemIdx, LOADIDX64: LayoutMemIdx,
	STOREIDX8: LayoutMemIdx, STOREIDX32: LayoutMemIdx, STOREIDX64: LayoutMemIdx,
	ADDRR: LayoutRR, SUBRR: LayoutRR, ANDRR: LayoutRR, ORRR: LayoutRR,
	XORRR: LayoutRR, SHLRR: LayoutRR, SHRRR: LayoutRR, SARRR: LayoutRR,
	IMULRR: LayoutRR, DIVRR: LayoutRR, MODRR: LayoutRR,
	CMPRR: LayoutRR, TESTRR: LayoutRR,
	ADDRI: LayoutRI, SUBRI: LayoutRI, ANDRI: LayoutRI, ORRI: LayoutRI,
	XORRI: LayoutRI, SHLRI: LayoutRI, SHRRI: LayoutRI, SARRI: LayoutRI,
	IMULRI: LayoutRI, CMPRI: LayoutRI, TESTRI: LayoutRI,
	NEG: LayoutR, NOT: LayoutR, SETCC: LayoutRCc,
	JMP: LayoutRel, JCC: LayoutCcRel, JMPR: LayoutR, JMPM: LayoutJmpM,
	CALL: LayoutRel, CALLR: LayoutR, RET: LayoutNone,
	PUSH: LayoutR, POP: LayoutR, CALLX: LayoutExt, SYSCALL: LayoutNone,
	HLT: LayoutNone, NOP: LayoutNone, UD2: LayoutNone,
	LOCKADD: LayoutMem, LOCKSUB: LayoutMem, LOCKAND: LayoutMem,
	LOCKOR: LayoutMem, LOCKXOR: LayoutMem, LOCKXADD: LayoutMem,
	LOCKINC: LayoutMem, LOCKDEC: LayoutMem,
	XCHG: LayoutMem, CMPXCHG: LayoutMem, MFENCE: LayoutNone,
	TLSBASE: LayoutR,
	VLOAD:   LayoutMem, VSTORE: LayoutMem, VADD: LayoutRR, VMUL: LayoutRR,
	VBCAST: LayoutRR, VHADD: LayoutRR,
}

// LayoutOf returns the operand layout of op.
func LayoutOf(op Op) Layout {
	if op < NumOps {
		return opLayouts[op]
	}
	return LayoutNone
}

var layoutSizes = [...]int{
	LayoutNone:   0,
	LayoutR:      1,
	LayoutRR:     2,
	LayoutRI:     1 + 4,
	LayoutRI64:   1 + 8,
	LayoutRCc:    2,
	LayoutMem:    2 + 4,
	LayoutMemI:   1 + 4 + 4,
	LayoutMemIdx: 3 + 1 + 4,
	LayoutRel:    4,
	LayoutCcRel:  1 + 4,
	LayoutJmpM:   2 + 4,
	LayoutExt:    2,
}

// Inst is a decoded MX64 instruction. Fields that do not participate in the
// opcode's layout are zero.
type Inst struct {
	Op    Op
	Cc    Cond  // JCC, SETCC
	Dst   Reg   // destination (or the register operand of stores/atomics)
	Src   Reg   // source register
	Base  Reg   // memory base register
	Idx   Reg   // memory index register
	Scale uint8 // memory index scale (1, 2, 4, 8)
	Disp  int32 // memory displacement, or branch displacement
	Imm   int64 // immediate
	Ext   uint16
}

// EncodedLen returns the encoded byte length of an instruction with opcode op.
func EncodedLen(op Op) int {
	return 1 + layoutSizes[LayoutOf(op)]
}

// MaxEncodedLen is the byte length of the longest possible instruction
// encoding (opcode byte plus the largest operand layout, LayoutRI64).
// Package tests assert it matches the layout table.
const MaxEncodedLen = 1 + 1 + 8

// Len returns the encoded byte length of i.
func (i Inst) Len() int { return EncodedLen(i.Op) }

// Encode appends the encoding of i to buf and returns the extended slice.
func (i Inst) Encode(buf []byte) []byte {
	buf = append(buf, byte(i.Op))
	switch LayoutOf(i.Op) {
	case LayoutNone:
	case LayoutR:
		buf = append(buf, byte(i.Dst))
	case LayoutRR:
		buf = append(buf, byte(i.Dst), byte(i.Src))
	case LayoutRI:
		buf = append(buf, byte(i.Dst))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(i.Imm)))
	case LayoutRI64:
		buf = append(buf, byte(i.Dst))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(i.Imm))
	case LayoutRCc:
		buf = append(buf, byte(i.Dst), byte(i.Cc))
	case LayoutMem:
		buf = append(buf, byte(i.Dst), byte(i.Base))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i.Disp))
	case LayoutMemI:
		buf = append(buf, byte(i.Base))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i.Disp))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(i.Imm)))
	case LayoutMemIdx:
		buf = append(buf, byte(i.Dst), byte(i.Base), byte(i.Idx), i.Scale)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i.Disp))
	case LayoutRel:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i.Disp))
	case LayoutCcRel:
		buf = append(buf, byte(i.Cc))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i.Disp))
	case LayoutJmpM:
		buf = append(buf, byte(i.Base), byte(i.Idx))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i.Disp))
	case LayoutExt:
		buf = binary.LittleEndian.AppendUint16(buf, i.Ext)
	}
	return buf
}

// Decode decodes one instruction from the start of code. It returns the
// instruction and its encoded length. An empty or invalid prefix yields a
// BAD instruction with length 1 (or 0 if code is empty); callers treat BAD
// as an illegal-instruction fault.
func Decode(code []byte) (Inst, int) {
	if len(code) == 0 {
		return Inst{Op: BAD}, 0
	}
	op := Op(code[0])
	if op == BAD || op >= NumOps {
		return Inst{Op: BAD}, 1
	}
	n := EncodedLen(op)
	if len(code) < n {
		return Inst{Op: BAD}, 1
	}
	i := Inst{Op: op}
	b := code[1:]
	switch LayoutOf(op) {
	case LayoutR:
		i.Dst = Reg(b[0])
	case LayoutRR:
		i.Dst, i.Src = Reg(b[0]), Reg(b[1])
	case LayoutRI:
		i.Dst = Reg(b[0])
		i.Imm = int64(int32(binary.LittleEndian.Uint32(b[1:])))
	case LayoutRI64:
		i.Dst = Reg(b[0])
		i.Imm = int64(binary.LittleEndian.Uint64(b[1:]))
	case LayoutRCc:
		i.Dst, i.Cc = Reg(b[0]), Cond(b[1])
	case LayoutMem:
		i.Dst, i.Base = Reg(b[0]), Reg(b[1])
		i.Disp = int32(binary.LittleEndian.Uint32(b[2:]))
	case LayoutMemI:
		i.Base = Reg(b[0])
		i.Disp = int32(binary.LittleEndian.Uint32(b[1:]))
		i.Imm = int64(int32(binary.LittleEndian.Uint32(b[5:])))
	case LayoutMemIdx:
		i.Dst, i.Base, i.Idx, i.Scale = Reg(b[0]), Reg(b[1]), Reg(b[2]), b[3]
		i.Disp = int32(binary.LittleEndian.Uint32(b[4:]))
	case LayoutRel:
		i.Disp = int32(binary.LittleEndian.Uint32(b[0:]))
	case LayoutCcRel:
		i.Cc = Cond(b[0])
		i.Disp = int32(binary.LittleEndian.Uint32(b[1:]))
	case LayoutJmpM:
		i.Base, i.Idx = Reg(b[0]), Reg(b[1])
		i.Disp = int32(binary.LittleEndian.Uint32(b[2:]))
	case LayoutExt:
		i.Ext = binary.LittleEndian.Uint16(b)
	}
	if !i.valid() {
		return Inst{Op: BAD}, 1
	}
	return i, n
}

// valid reports whether the decoded operand fields are in range, so that
// random bytes usually decode to BAD rather than to nonsense operands.
func (i Inst) valid() bool {
	vecRR := i.Op == VADD || i.Op == VMUL
	vecMem := i.Op == VLOAD || i.Op == VSTORE
	checkGPR := func(r Reg) bool { return r < NumRegs }
	checkV := func(r Reg) bool { return r < NumVRegs }
	switch LayoutOf(i.Op) {
	case LayoutR:
		return checkGPR(i.Dst)
	case LayoutRR:
		switch {
		case vecRR:
			return checkV(i.Dst) && checkV(i.Src)
		case i.Op == VBCAST:
			return checkV(i.Dst) && checkGPR(i.Src)
		case i.Op == VHADD:
			return checkGPR(i.Dst) && checkV(i.Src)
		default:
			return checkGPR(i.Dst) && checkGPR(i.Src)
		}
	case LayoutRI, LayoutRI64:
		return checkGPR(i.Dst)
	case LayoutRCc:
		return checkGPR(i.Dst) && i.Cc < NumConds
	case LayoutMem:
		if vecMem {
			return checkV(i.Dst) && checkGPR(i.Base)
		}
		return checkGPR(i.Dst) && checkGPR(i.Base)
	case LayoutMemI:
		return checkGPR(i.Base)
	case LayoutMemIdx:
		okScale := i.Scale == 1 || i.Scale == 2 || i.Scale == 4 || i.Scale == 8
		return checkGPR(i.Dst) && checkGPR(i.Base) && checkGPR(i.Idx) && okScale
	case LayoutCcRel:
		return i.Cc < NumConds
	case LayoutJmpM:
		return checkGPR(i.Base) && checkGPR(i.Idx)
	}
	return true
}

// IsTerminator reports whether i ends a basic block.
func (i Inst) IsTerminator() bool {
	switch i.Op {
	case JMP, JCC, JMPR, JMPM, RET, HLT, UD2, SYSCALL:
		return true
	}
	return false
}

// IsIndirect reports whether i transfers control to a target not encoded in
// the instruction itself.
func (i Inst) IsIndirect() bool {
	return i.Op == JMPR || i.Op == JMPM || i.Op == CALLR
}

// IsAtomic reports whether i is a lock-prefixed (hardware atomic) operation.
func (i Inst) IsAtomic() bool {
	switch i.Op {
	case LOCKADD, LOCKSUB, LOCKAND, LOCKOR, LOCKXOR, LOCKXADD,
		LOCKINC, LOCKDEC, XCHG, CMPXCHG:
		return true
	}
	return false
}

// vregName names vector registers for the printer.
func vregName(r Reg) string { return fmt.Sprintf("v%d", uint8(r)) }

// String renders i in a compact at&t-free syntax, e.g.
// "load64 rax, [rbp-8]" or "lock cmpxchg [rsi+0], rcx".
func (i Inst) String() string {
	mem := func() string {
		if i.Disp == 0 {
			return fmt.Sprintf("[%s]", i.Base)
		}
		return fmt.Sprintf("[%s%+d]", i.Base, i.Disp)
	}
	memIdx := func() string {
		return fmt.Sprintf("[%s+%s*%d%+d]", i.Base, i.Idx, i.Scale, i.Disp)
	}
	switch i.Op {
	case MOVRR, ADDRR, SUBRR, ANDRR, ORRR, XORRR, SHLRR, SHRRR, SARRR,
		IMULRR, DIVRR, MODRR, CMPRR, TESTRR:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Dst, i.Src)
	case MOVRI, ADDRI, SUBRI, ANDRI, ORRI, XORRI, SHLRI, SHRRI, SARRI,
		IMULRI, CMPRI, TESTRI:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Dst, i.Imm)
	case LEA:
		return fmt.Sprintf("lea %s, %s", i.Dst, mem())
	case LEAIDX:
		return fmt.Sprintf("lea %s, %s", i.Dst, memIdx())
	case LOAD8, LOAD32, LOAD64:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Dst, mem())
	case STORE8, STORE32, STORE64:
		return fmt.Sprintf("%s %s, %s", i.Op, mem(), i.Dst)
	case STOREI8, STOREI32, STOREI64:
		return fmt.Sprintf("%s %s, %d", i.Op, mem(), i.Imm)
	case LOADIDX8, LOADIDX32, LOADIDX64:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Dst, memIdx())
	case STOREIDX8, STOREIDX32, STOREIDX64:
		return fmt.Sprintf("%s %s, %s", i.Op, memIdx(), i.Dst)
	case NEG, NOT, PUSH, POP, JMPR, CALLR, TLSBASE:
		return fmt.Sprintf("%s %s", i.Op, i.Dst)
	case SETCC:
		return fmt.Sprintf("set%s %s", i.Cc, i.Dst)
	case JMP, CALL:
		return fmt.Sprintf("%s %+d", i.Op, i.Disp)
	case JCC:
		return fmt.Sprintf("j%s %+d", i.Cc, i.Disp)
	case JMPM:
		return fmt.Sprintf("jmp %s", memIdx0(i))
	case CALLX:
		return fmt.Sprintf("callx #%d", i.Ext)
	case LOCKADD, LOCKSUB, LOCKAND, LOCKOR, LOCKXOR, LOCKXADD, XCHG, CMPXCHG:
		return fmt.Sprintf("%s %s, %s", i.Op, mem(), i.Dst)
	case LOCKINC, LOCKDEC:
		return fmt.Sprintf("%s %s", i.Op, mem())
	case VLOAD:
		return fmt.Sprintf("vload %s, %s", vregName(i.Dst), mem())
	case VSTORE:
		return fmt.Sprintf("vstore %s, %s", mem(), vregName(i.Dst))
	case VADD, VMUL:
		return fmt.Sprintf("%s %s, %s", i.Op, vregName(i.Dst), vregName(i.Src))
	case VBCAST:
		return fmt.Sprintf("vbcast %s, %s", vregName(i.Dst), i.Src)
	case VHADD:
		return fmt.Sprintf("vhadd %s, %s", i.Dst, vregName(i.Src))
	default:
		return i.Op.String()
	}
}

func memIdx0(i Inst) string {
	return fmt.Sprintf("[%s+%s*8%+d]", i.Base, i.Idx, i.Disp)
}
