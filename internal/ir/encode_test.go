package ir_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/ir"
)

// buildSample constructs a module with one function exercising every
// serialized field: phis, switches, atomics, global/function/extern
// references, site IDs, stack-local accesses, switch values.
func buildSample() (*ir.Module, *ir.Func) {
	m := ir.NewModule("sample")
	g := m.NewGlobal("counter", 8)
	g.ThreadLocal = true
	helper := m.NewFunc("helper")
	helper.HasResult = true
	helper.NumParams = 1

	f := m.NewFunc("body")
	f.External = true
	f.OrigEntry = 0x4000

	entry := f.NewBlock("entry")
	entry.OrigAddr = 0x4000
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")

	c0 := entry.Append(ir.OpConst)
	c0.Const = -7
	ga := entry.Append(ir.OpGlobalAddr)
	ga.Global = g
	fa := entry.Append(ir.OpFuncAddr)
	fa.Fn = f // self-reference
	ld := entry.Append(ir.OpLoad, ga)
	ld.Width = 4
	ld.SignExt = true
	ld.SiteID = 3
	ld.OrigPC = 0x4004
	ld.StackLocal = true
	br := entry.Append(ir.OpBr)
	br.Targets = []*ir.Block{loop}

	phi := loop.Append(ir.OpPhi, c0, ld)
	phi.PhiPreds = []*ir.Block{entry, loop}
	rmw := loop.Append(ir.OpAtomicRMW, ga, phi)
	rmw.RMW = ir.RMWXchg
	rmw.Width = 8
	fe := loop.Append(ir.OpFence)
	fe.Order = ir.OrderRelease
	_ = fe
	call := loop.Append(ir.OpCall, rmw)
	call.Fn = helper
	ext := loop.Append(ir.OpCallExt, call)
	ext.ExtName = "putchar"
	cmp := loop.Append(ir.OpICmp, ext, c0)
	cmp.Pred = ir.PredSLE
	sw := loop.Append(ir.OpSwitch, cmp)
	sw.Targets = []*ir.Block{exit, loop, entry}
	sw.SwitchVals = []int64{0, -1}

	exit.Append(ir.OpRet)
	return m, f
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m, f := buildSample()
	enc, err := ir.EncodeFunc(f)
	if err != nil {
		t.Fatal(err)
	}
	dst := &ir.Func{Name: f.Name, Mod: m}
	if err := ir.DecodeFuncInto(dst, enc, m.Global, m.Func); err != nil {
		t.Fatal(err)
	}
	if got, want := dst.String(), f.String(); got != want {
		t.Fatalf("decoded body prints differently:\n--- want\n%s\n--- got\n%s", want, got)
	}
	// Bit-exactness: the decoded body re-encodes to the same bytes, so every
	// serialized attribute (IDs, widths, site IDs, ...) survived.
	re, err := ir.EncodeFunc(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, enc) {
		t.Fatal("re-encoding the decoded body changed the bytes")
	}
	// Self-references resolve to the decode destination, not the source.
	var selfRef *ir.Value
	for _, b := range dst.Blocks {
		for _, v := range b.Insts {
			if v.Op == ir.OpFuncAddr {
				selfRef = v
			}
		}
	}
	// m.Func("body") is still the original f; a fresh-module decode resolves
	// by name, which is the contract — here both names map to f.
	if selfRef == nil || selfRef.Fn != m.Func("body") {
		t.Fatal("faddr did not resolve through the function lookup")
	}
}

func TestDecodeUnresolvedSymbolFails(t *testing.T) {
	m, f := buildSample()
	enc, err := ir.EncodeFunc(f)
	if err != nil {
		t.Fatal(err)
	}
	// A destination module that renamed the referenced global: decode must
	// fail (caller treats it as a cache miss), not fabricate a symbol.
	dst := &ir.Func{Name: f.Name}
	noGlobal := func(string) *ir.Global { return nil }
	if err := ir.DecodeFuncInto(dst, enc, noGlobal, m.Func); err == nil {
		t.Fatal("decode succeeded with an unresolvable global")
	}
	// Same for a dropped function.
	dst2 := &ir.Func{Name: f.Name}
	noFunc := func(string) *ir.Func { return nil }
	if err := ir.DecodeFuncInto(dst2, enc, m.Global, noFunc); err == nil {
		t.Fatal("decode succeeded with an unresolvable function")
	}
}

func TestDecodeRejectsMalformedData(t *testing.T) {
	m, f := buildSample()
	enc, err := ir.EncodeFunc(f)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"bad-magic": append([]byte("XIRF9\n"), enc[6:]...),
		"truncated": enc[:len(enc)/3],
		"trailing":  append(append([]byte(nil), enc...), 0xee),
		"wrapped":   wrappedBlockTable(),
	}
	for name, data := range cases {
		dst := &ir.Func{Name: f.Name}
		if err := ir.DecodeFuncInto(dst, data, m.Global, m.Func); err == nil {
			t.Errorf("%s: decode succeeded on malformed data", name)
		}
	}
	// Non-empty destinations are refused outright.
	used := &ir.Func{Name: "used"}
	used.NewBlock("b")
	if err := ir.DecodeFuncInto(used, enc, m.Global, m.Func); err == nil {
		t.Error("decode succeeded into a non-empty function")
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	m1, f1 := buildSample()
	m2, f2 := buildSample()
	_ = m1
	_ = m2
	e1, err1 := ir.EncodeFunc(f1)
	e2, err2 := ir.EncodeFunc(f2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(e1, e2) {
		t.Fatal("two identical bodies encoded differently")
	}
}

// wrappedBlockTable is a 64-byte body whose block table counts 2^64-1 and 2
// instructions: their sum wraps to 1, below the payload's length, so a
// decoder that checks only the sum loops 2^64-1 times.
func wrappedBlockTable() []byte {
	b := []byte("\x06PIRF1\n")
	b = append(b, 0, 0, 0, 0, 2) // flags, params, entry, next ID, 2 blocks
	for _, n := range []uint64{^uint64(0), 2} {
		b = append(b, 0, 0) // empty name, orig addr 0
		b = binary.AppendUvarint(b, n)
	}
	return append(b, make([]byte, 64-len(b))...)
}

// FuzzDecodeFuncInto feeds arbitrary bytes to the func-artifact decoder, as
// any store client may PUT them. The decoder must return an error or a body
// whose use lists are consistent and which re-encodes; it must never panic
// or hang. Every symbol name resolves, to a fresh global or function, so
// the fuzzer reaches past symbol resolution. The committed corpus holds
// EncodeFunc of every function of three optimized workloads.
func FuzzDecodeFuncInto(f *testing.F) {
	_, sample := buildSample()
	enc, err := ir.EncodeFunc(sample)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(wrappedBlockTable())
	f.Fuzz(func(t *testing.T, data []byte) {
		m := ir.NewModule("fuzz")
		globalOf := func(name string) *ir.Global {
			if g := m.Global(name); g != nil {
				return g
			}
			return m.NewGlobal(name, 8)
		}
		funcOf := func(name string) *ir.Func {
			if fn := m.Func(name); fn != nil {
				return fn
			}
			return m.NewFunc(name)
		}
		dst := &ir.Func{Name: "fuzz", Mod: m}
		if ir.DecodeFuncInto(dst, data, globalOf, funcOf) != nil {
			return
		}
		if err := ir.VerifyUses(dst); err != nil {
			t.Fatalf("decoded body: %v", err)
		}
		if _, err := ir.EncodeFunc(dst); err != nil {
			t.Fatalf("decoded body does not re-encode: %v", err)
		}
	})
}
