package vm_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestCacheIdentity proves the predecode cache is invisible: every
// workload, run on the fast loop with all of its predecoded pages dropped
// about coldDrops times — the block hook rewrites each executable section
// with its own bytes, which the write watch reports as stores into code —
// must re-decode and recompile mid-run and still produce the Result of an
// undisturbed run.
func TestCacheIdentity(t *testing.T) {
	const coldDrops = 64
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			img, err := w.Compile(2)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range identitySeeds {
				blocks := 0
				warm, _ := runCell(t, img, seed, w.Input(), cell{}, bench.Fuel, func(m *vm.Machine) {
					m.OnBlock = func(*vm.Thread, uint64) { blocks++ }
				})
				every, n, drops := blocks/coldDrops+1, 0, 0
				cold, _ := runCell(t, img, seed, w.Input(), cell{}, bench.Fuel, func(m *vm.Machine) {
					m.OnBlock = func(*vm.Thread, uint64) {
						if n++; n%every != 0 {
							return
						}
						drops++
						for _, s := range m.Img.Sections {
							if s.Exec {
								code, _ := m.Mem.ReadBytes(s.Addr, s.Size)
								m.Mem.WriteBytes(s.Addr, code)
							}
						}
					}
				})
				if drops == 0 {
					t.Fatalf("seed %d: cache never dropped", seed)
				}
				if !sameResult(warm, cold) {
					t.Fatalf("seed %d: cold-cache run diverges:\n  warm: %+v\n  cold: %+v", seed, warm, cold)
				}
			}
		})
	}
}

// TestCacheIdentityRecompiled runs recompiled binaries for both targets
// through the fast and per-step loops. Their images carry two executable
// sections (the original text and the appended recompiled code), which
// exercises the multi-range code-write watch and multi-page predecode
// paths; the mx64w images carry real fences and spill traffic.
func TestCacheIdentityRecompiled(t *testing.T) {
	for _, name := range []string{"linear_regression", "string_match"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := workloads.ByName(name)
			if w == nil {
				t.Fatalf("no workload %q", name)
			}
			img, err := w.Compile(2)
			if err != nil {
				t.Fatal(err)
			}
			for _, target := range []string{"mx64", "mx64w"} {
				opts := core.DefaultOptions()
				opts.Target = target
				p, err := core.NewProject(img, opts)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := p.Recompile()
				if err != nil {
					t.Fatal(err)
				}
				for _, seed := range identitySeeds {
					step, _ := runCell(t, rec, seed, w.Input(), cell{counted: true}, bench.Fuel, nil)
					fast, _ := runCell(t, rec, seed, w.Input(), cell{}, bench.Fuel, nil)
					if !sameResult(step, fast) {
						t.Fatalf("%s seed %d: fast loop diverges from per-step on recompiled binary:\n  per-step: %+v\n  fast:     %+v",
							target, seed, step, fast)
					}
				}
			}
		})
	}
}

// identitySeeds is the scheduler-seed matrix for the identity tests.
var identitySeeds = []int64{1, 2, 3, 5}

func sameResult(a, b vm.Result) bool {
	if a.ExitCode != b.ExitCode || a.Cycles != b.Cycles ||
		a.Insts != b.Insts || a.Output != b.Output {
		return false
	}
	if (a.Fault == nil) != (b.Fault == nil) {
		return false
	}
	return a.Fault == nil || *a.Fault == *b.Fault
}

// pagePad positions the "patch" label one byte before the 4KiB page
// boundary (pages are 1<<12 bytes; NOP encodes in 1 byte).
const pagePad = 1<<12 - 1

// TestLazyCompileMatchesEager pins per-offset compilation to the whole-page
// pass it replaced. Every offset of every executable page of every
// workload's O2 image, on both machines, and of a recompiled image with two
// executable sections, is compiled in two random orders, so flat-run chains
// start mid-run and join chains compiled before them; each offset's
// instruction and dispatch entry must equal mx.Decode plus the whole-page
// fusion and backward flat-run pass over the same bytes.
func TestLazyCompileMatchesEager(t *testing.T) {
	type cell struct {
		img  *image.Image
		exts map[string]vm.ExtFunc
	}
	var cs []cell
	for _, w := range workloads.All() {
		img, err := w.Compile(2)
		if err != nil {
			t.Fatal(err)
		}
		exts := w.Input().Exts
		cs = append(cs, cell{img, exts}, cell{weakClone(img), exts})
	}
	img, err := workloads.ByName("linear_regression").Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProject(img, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	cs = append(cs, cell{rec, nil})
	for _, c := range cs {
		for _, seed := range []int64{1, 2} {
			msg, err := vm.LazyEagerMismatch(c.img, c.exts, seed)
			if err != nil {
				t.Fatal(err)
			}
			if msg != "" {
				t.Fatalf("%s (%s), order %d: %s", c.img.Name, c.img.Machine, seed, msg)
			}
		}
	}
}
