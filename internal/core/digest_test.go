package core_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/spindet"
	"repro/internal/workloads"
)

// digestFile holds the sha256 of every corpus image's .pxe bytes, one
// "cell digest" line per image. A cell is program/O<level>/target/kind: kind
// "traced" is a recompile traced on the primary input (checked by
// TestReplayIdentityAcrossCorpus), kind "pruned" one that is also
// callback-pruned and, for Phoenix programs, fence-optimized
// (TestPrunedCorpusDigests). Kind "spindet" is not an image but the
// canonical rendering of the cell's spinloop report (reportBytes), checked
// by TestPrunedCorpusDigests too. The file pins image bytes and reports
// across commits: a change that moves any of them fails until the file
// says so.
const digestFile = "testdata/corpus_digests.txt"

// corpusDigests returns the committed digests of the cells of one kind.
func corpusDigests(t *testing.T, kind string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		cell, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		if strings.HasSuffix(cell, "/"+kind) {
			want[cell] = digest
		}
	}
	return want
}

// checkDigest compares the digest of b (an image's bytes, or a report's
// rendering) with cell's committed one and removes the cell from want. On a
// mismatch it prints the line the file would need.
func checkDigest(t *testing.T, want map[string]string, cell string, b []byte) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); want[cell] != got {
		t.Errorf("%s: digest changed; new line:\n%s %s", cell, cell, got)
	}
	delete(want, cell)
}

// reportBytes renders a spinloop report canonically: its counts and
// verdict, then one line per loop in the report's (sorted) order with every
// field, Reason included.
func reportBytes(rep *spindet.Report) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "loops %d nonspinning %d spinning %d uncovered %d removable %t\n",
		len(rep.Loops), rep.NonSpinning, rep.Spinning, rep.Uncovered, rep.FencesRemovable)
	for _, l := range rep.Loops {
		fmt.Fprintf(&b, "%s %#x spinning=%t covered=%t %q\n", l.Func, l.Header, l.Spinning, l.Covered, l.Reason)
	}
	return []byte(b.String())
}

// checkNoStaleDigests fails for every committed cell no test built.
func checkNoStaleDigests(t *testing.T, want map[string]string) {
	t.Helper()
	var stale []string
	for cell := range want {
		stale = append(stale, cell)
	}
	sort.Strings(stale)
	for _, cell := range stale {
		t.Errorf("%s: listed in %s but not built", cell, digestFile)
	}
}

// TestPrunedCorpusDigests builds every corpus (program, level, target) cell
// as the hybrid pipeline does: traced on the primary input, callback-pruned,
// and for Phoenix programs fence-optimized, with fence removal forced where
// the spinloop analysis cannot prove it (as Table 2's FO column does). Each
// image's digest must match the committed one. Every cell's spinloop report
// is pinned too: other programs run FenceOptimize after their Recompile, so
// the analysis cannot move their image.
func TestPrunedCorpusDigests(t *testing.T) {
	want := corpusDigests(t, "pruned")
	wantRep := corpusDigests(t, "spindet")
	for _, w := range workloads.All() {
		for _, lvl := range []int{0, 2} {
			img, err := w.Compile(lvl)
			if err != nil {
				t.Fatal(err)
			}
			for _, target := range []string{"mx64", "mx64w"} {
				cell := fmt.Sprintf("%s/O%d/%s/pruned", w.Name, lvl, target)
				o := core.DefaultOptions()
				o.Target = target
				o.NoFuncCache = true
				p, err := core.NewProject(img, o)
				if err != nil {
					t.Fatal(err)
				}
				in := []core.Input{w.Input()}
				if _, err := p.Trace(in); err != nil {
					t.Fatalf("%s: trace: %v", cell, err)
				}
				if err := p.PruneCallbacks(in); err != nil {
					t.Fatalf("%s: prune: %v", cell, err)
				}
				repCell := strings.TrimSuffix(cell, "pruned") + "spindet"
				fenceOptimize := func() *spindet.Report {
					rep, err := p.FenceOptimize(in)
					if err != nil {
						t.Fatalf("%s: fence optimization: %v", cell, err)
					}
					checkDigest(t, wantRep, repCell, reportBytes(rep))
					return rep
				}
				phoenix := w.Family == "phoenix"
				if phoenix && !fenceOptimize().FencesRemovable {
					p.ForceFenceRemoval()
				}
				rec, err := p.Recompile()
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				checkDigest(t, want, cell, marshalImg(t, rec))
				if !phoenix {
					fenceOptimize()
				}
			}
		}
	}
	checkNoStaleDigests(t, want)
	checkNoStaleDigests(t, wantRep)
}
