package bench

import (
	"testing"

	"repro/internal/workloads"
)

// TestXISAFenceInvariants pins the cross-ISA fence contract on three
// Phoenix workloads with distinct fence-optimization verdicts
// (linear_regression and word_count are provably removable, histogram is
// conservative and has removal forced, as in Table 2): the TSO mx64 backend
// emits zero fences, the weakly-ordered mx64w backend emits real fences,
// fence optimization strictly reduces the mx64w count, and every recompiled
// binary passes its workload check.
func TestXISAFenceInvariants(t *testing.T) {
	for _, name := range []string{"linear_regression", "word_count", "histogram"} {
		w := workloads.ByName(name)
		t.Run(name, func(t *testing.T) {
			fences := func(target string, fenceOpt bool) int {
				h := NewHarness(1)
				h.SetTarget(target)
				p, rec, _, err := h.recompileOpts(w, 2, fenceOpt, false)
				if err != nil {
					t.Fatalf("%s fo=%v: %v", target, fenceOpt, err)
				}
				if _, err := cycles(w, rec); err != nil {
					t.Fatalf("%s fo=%v: recompiled run: %v", target, fenceOpt, err)
				}
				return p.Stats.Fences
			}
			tso, weak, weakFO := fences("mx64", false), fences("mx64w", false), fences("mx64w", true)
			t.Logf("fences: mx64 %d, mx64w %d, mx64w+fo %d", tso, weak, weakFO)
			if tso != 0 {
				t.Errorf("mx64 emitted %d fences; TSO needs none", tso)
			}
			if weak == 0 {
				t.Error("mx64w emitted no fences")
			}
			if weakFO >= weak {
				t.Errorf("fence optimization did not reduce mx64w fences: %d -> %d", weak, weakFO)
			}
		})
	}
}
