package ir_test

// Workload-wide serialization round-trip: every optimized function body of
// every benchmark workload must survive EncodeFunc/DecodeFuncInto
// bit-exactly — the store's disk tier replays these bytes across process
// restarts, so any lossy field here would silently break the determinism
// contract (DESIGN.md §3). The import of internal/workloads (which depends
// on core, which depends on ir) is legal because this is an external test
// package.

import (
	"bytes"
	"testing"

	"repro/internal/disasm"
	"repro/internal/ir"
	"repro/internal/lifter"
	"repro/internal/opt"
	"repro/internal/workloads"
)

func TestEncodeRoundTripAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("lifts and optimizes every workload")
	}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			img, err := w.Compile(2)
			if err != nil {
				t.Fatal(err)
			}
			g, err := disasm.Disassemble(img)
			if err != nil {
				t.Fatal(err)
			}
			lf, err := lifter.Lift(img, g, lifter.Options{InsertFences: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := opt.Run(lf.Mod, opt.Options{}); err != nil {
				t.Fatal(err)
			}
			for _, f := range lf.Mod.Funcs {
				enc, err := ir.EncodeFunc(f)
				if err != nil {
					t.Fatalf("%s: encode: %v", f.Name, err)
				}
				dst := &ir.Func{Name: f.Name, Mod: lf.Mod}
				if err := ir.DecodeFuncInto(dst, enc, lf.Mod.Global, lf.Mod.Func); err != nil {
					t.Fatalf("%s: decode: %v", f.Name, err)
				}
				if err := ir.VerifyUses(dst); err != nil {
					t.Fatalf("%s: decoded use lists: %v", f.Name, err)
				}
				if got, want := dst.String(), f.String(); got != want {
					t.Fatalf("%s: decoded body prints differently:\n--- want\n%s\n--- got\n%s", f.Name, want, got)
				}
				re, err := ir.EncodeFunc(dst)
				if err != nil {
					t.Fatalf("%s: re-encode: %v", f.Name, err)
				}
				if !bytes.Equal(re, enc) {
					t.Fatalf("%s: round trip is not bit-exact", f.Name)
				}
			}
		})
	}
}
