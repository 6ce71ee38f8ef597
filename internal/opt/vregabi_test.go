package opt_test

import (
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/opt"
)

// TestVRegReloadContract pins which virtual registers a reload may take from
// a store made earlier in the same block, across each kind of call (the ABI
// contract of vregprom.go). A lifted callee restores the callee-saved
// registers except the emulated stack pointer, which its RET moves. The host
// side of an external call touches only what a callback wrapper
// round-trips, the callee-saved registers, and nothing at all once the
// callback analysis proved there are no callbacks. Flags and caller-saved
// registers are reloaded after any call that may run guest code.
func TestVRegReloadContract(t *testing.T) {
	calleeSaved := []string{"vr_rbx", "vr_rbp", "vr_r12", "vr_r13", "vr_r14", "vr_r15"}
	clobbered := []string{"vr_rax", "vr_rcx", "vr_rdx", "vr_rsi", "vr_rdi", "vr_r8", "vr_r11",
		"fl_zf", "fl_cf", "vv0_0"}
	type call struct {
		op          ir.Op
		noCallbacks bool
	}
	lifted, liftedNoCB := call{ir.OpCall, false}, call{ir.OpCall, true}
	ext, extNoCB := call{ir.OpCallExt, false}, call{ir.OpCallExt, true}
	cases := []struct {
		regs    []string
		call    call
		forward bool
	}{
		{calleeSaved, lifted, true},
		{calleeSaved, liftedNoCB, true},
		{[]string{"vr_rsp"}, lifted, false},
		{[]string{"vr_rsp"}, liftedNoCB, false},
		{clobbered, lifted, false},
		{clobbered, liftedNoCB, false},
		{calleeSaved, ext, true},
		{[]string{"vr_rsp"}, ext, true},
		{clobbered, ext, false},
		{calleeSaved, extNoCB, true},
		{[]string{"vr_rsp"}, extNoCB, true},
		{clobbered, extNoCB, true},
	}
	for _, tc := range cases {
		for _, reg := range tc.regs {
			name := fmt.Sprintf("%s/%s/nocallbacks=%v", reg, tc.call.op, tc.call.noCallbacks)
			t.Run(name, func(t *testing.T) {
				f, load := reloadAcrossCall(reg, tc.call.op)
				if err := opt.RunFunc(f, opt.Options{Verify: true, NoCallbacks: tc.call.noCallbacks}); err != nil {
					t.Fatal(err)
				}
				reloads := 0
				for _, b := range f.Blocks {
					for _, v := range b.Insts {
						if v.Op == ir.OpVRegLoad && v.Global.Name == reg {
							reloads++
						}
					}
				}
				if got := reloads == 0; got != tc.forward {
					t.Fatalf("forwarded = %v, want %v (%d reloads left)", got, tc.forward, reloads)
				}
				if tc.forward && load.NumUses() != 0 {
					t.Fatalf("forwarded reload still has %d uses", load.NumUses())
				}
			})
		}
	}
}

// reloadAcrossCall builds one block that stores a constant to the vreg
// named reg, makes a call of the given op, reloads reg and writes the reload
// to guest memory. It returns the function and the reload.
func reloadAcrossCall(reg string, op ir.Op) (*ir.Func, *ir.Value) {
	m := ir.NewModule("t")
	g := m.NewGlobal(reg, 8)
	g.ThreadLocal = true
	callee := m.NewFunc("callee")
	callee.NewBlock("entry").Append(ir.OpRet)

	f := m.NewFunc("f")
	b := f.NewBlock("entry")
	val := b.Append(ir.OpConst)
	val.Const = 42
	b.Append(ir.OpVRegStore, val).Global = g
	c := b.Append(op)
	if op == ir.OpCall {
		c.Fn = callee
	} else {
		c.ExtName = "puts"
	}
	load := b.Append(ir.OpVRegLoad)
	load.Global = g
	addr := b.Append(ir.OpConst)
	addr.Const = 0x1000
	b.Append(ir.OpStore, addr, load).Width = 8
	b.Append(ir.OpRet)
	return f, load
}
