package vm_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/bench"
	"repro/internal/disasm"
	"repro/internal/lifter"
	"repro/internal/lower"
	"repro/internal/mx"
	"repro/internal/opt"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// accessLog folds the (thread, site, address) events a recording run
// delivers into a running hash and a count, so two runs' sequences compare
// without holding them.
type accessLog struct {
	n     int
	h     hash.Hash64
	sites map[int]bool // every site ID the table tags
	bad   int          // events whose site is not in the table
}

func (l *accessLog) record(t *vm.Thread, site int, addr uint64) {
	if !l.sites[site] {
		l.bad++
	}
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(t.ID))
	binary.LittleEndian.PutUint64(b[8:], uint64(site))
	binary.LittleEndian.PutUint64(b[16:], addr)
	l.h.Write(b[:])
	l.n++
}

// TestRecordAccessesIdentity runs threaded recompiled images, lowered for
// mx64 and for mx64w, with and without the access hook. Recording must not
// perturb execution: the hooked runs' Result (exit code, output, cycles,
// instructions, fault) equals the plain run's. And the fast loop and the
// per-step loop (counters on) must deliver the same sequence of (thread,
// site, address) events, every one at a site the table tags.
func TestRecordAccessesIdentity(t *testing.T) {
	for _, name := range []string{"linear_regression", "word_count", "ck_ticket", "ck_mcs"} {
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
			g, err := disasm.Disassemble(img)
			if err != nil {
				t.Fatal(err)
			}
			for _, tgt := range mx.Targets {
				lf, err := lifter.Lift(img, g, lifter.Options{InsertFences: true})
				if err != nil {
					t.Fatal(err)
				}
				if err := opt.Run(lf.Mod, opt.Options{}); err != nil {
					t.Fatal(err)
				}
				res, err := lower.LowerWithOptions(lf, lower.Options{Target: tgt})
				if err != nil {
					t.Fatal(err)
				}
				tagged := map[int]bool{}
				for _, site := range res.Sites {
					tagged[site] = true
				}
				for _, seed := range identitySeeds {
					plain, _ := runCell(t, res.Img, seed, w.Input(), cell{}, bench.Fuel, nil)
					if plain.Fault != nil {
						t.Fatalf("%s seed %d: %v", tgt.Name, seed, plain.Fault)
					}
					var logs [2]accessLog
					for i, counted := range []bool{false, true} {
						l := &logs[i]
						l.h, l.sites = fnv.New64a(), tagged
						got, _ := runCell(t, res.Img, seed, w.Input(), cell{counted: counted}, bench.Fuel, func(m *vm.Machine) {
							m.RecordAccesses(res.Sites, l.record)
						})
						if !sameResult(plain, got) {
							t.Fatalf("%s seed %d counted=%t: recording perturbs execution:\n  plain:     %+v\n  recording: %+v",
								tgt.Name, seed, counted, plain, got)
						}
						if l.n == 0 || l.bad != 0 {
							t.Fatalf("%s seed %d counted=%t: %d events, %d at untagged sites", tgt.Name, seed, counted, l.n, l.bad)
						}
					}
					if fast, step := logs[0].h.Sum64(), logs[1].h.Sum64(); logs[0].n != logs[1].n || fast != step {
						t.Fatalf("%s seed %d: fast loop delivered %d events (hash %#x), per-step loop %d (hash %#x)",
							tgt.Name, seed, logs[0].n, fast, logs[1].n, step)
					}
				}
			}
		})
	}
}
