package lower_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/disasm"
	"repro/internal/ir"
	"repro/internal/lifter"
	"repro/internal/lower"
	"repro/internal/mx"
	"repro/internal/opt"
	"repro/internal/workloads"
)

// TestSiteTableTagsEveryAccess lowers the unpruned optimized build of every
// corpus image at O0 and O2 for both targets and checks the site table
// against the IR: exactly one entry per memory access that carries a
// SiteID (the same site IDs, each as often as accesses carry it), and every
// tagged address decodes to a load, store, LOCK op, XCHG or CMPXCHG.
func TestSiteTableTagsEveryAccess(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, w := range workloads.All() {
		for _, lvl := range []int{0, 2} {
			img, err := w.Compile(lvl)
			if err != nil {
				t.Fatal(err)
			}
			g, err := disasm.Disassemble(img)
			if err != nil {
				t.Fatal(err)
			}
			for _, tgt := range mx.Targets {
				cell := fmt.Sprintf("%s/O%d/%s", w.Name, lvl, tgt.Name)
				lf, err := lifter.Lift(img, g, lifter.Options{InsertFences: true})
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				if err := opt.Run(lf.Mod, opt.Options{}); err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				want := map[int]int{}
				for _, f := range lf.Mod.Funcs {
					for _, b := range f.Blocks {
						for _, v := range b.Insts {
							switch v.Op {
							case ir.OpLoad, ir.OpStore, ir.OpAtomicRMW, ir.OpCmpXchg:
								if v.SiteID != 0 {
									want[v.SiteID]++
								}
							}
						}
					}
				}
				res, err := lower.LowerWithOptions(lf, lower.Options{Target: tgt})
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				if len(want) == 0 {
					t.Fatalf("%s: no IR access carries a SiteID", cell)
				}
				text := res.Img.Section(".ltext")
				got := map[int]int{}
				for addr, site := range res.Sites {
					got[site]++
					if addr < text.Addr || addr >= text.Addr+uint64(len(text.Data)) {
						t.Fatalf("%s: site %d tagged at %#x, outside .ltext", cell, site, addr)
					}
					inst, _ := mx.Decode(text.Data[addr-text.Addr:])
					if !isAccessOp(inst.Op) {
						t.Errorf("%s: site %d tagged at %#x on %v, not a memory access", cell, site, addr, inst)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: site table has %d entries over %d sites, want %d sites as the IR carries them",
						cell, len(res.Sites), len(got), len(want))
				}
			}
		}
	}
}

// isAccessOp reports whether op is one of the instructions an IR access
// lowers to: a plain or indexed load or store, a LOCK op, XCHG or CMPXCHG.
func isAccessOp(op mx.Op) bool {
	switch op {
	case mx.LOAD8, mx.LOAD32, mx.LOAD64, mx.LOADIDX8, mx.LOADIDX32, mx.LOADIDX64,
		mx.STORE8, mx.STORE32, mx.STORE64, mx.STOREIDX8, mx.STOREIDX32, mx.STOREIDX64:
		return true
	}
	return (mx.Inst{Op: op}).IsAtomic()
}
