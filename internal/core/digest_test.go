package core_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// digestFile holds the sha256 of every corpus image's .pxe bytes, one
// "cell digest" line per image. A cell is program/O<level>/target/kind: kind
// "traced" is a recompile traced on the primary input (checked by
// TestReplayIdentityAcrossCorpus), kind "pruned" one that is also
// callback-pruned and, for Phoenix programs, fence-optimized
// (TestPrunedCorpusDigests). The file pins image bytes across commits: a
// change that moves any image fails until the file says so.
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

// checkDigest compares img's digest with cell's committed one and removes
// the cell from want. On a mismatch it prints the line the file would need.
func checkDigest(t *testing.T, want map[string]string, cell string, img []byte) {
	t.Helper()
	if got := fmt.Sprintf("%x", sha256.Sum256(img)); want[cell] != got {
		t.Errorf("%s: image digest changed; new line:\n%s %s", cell, cell, got)
	}
	delete(want, cell)
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
// image's digest must match the committed one.
func TestPrunedCorpusDigests(t *testing.T) {
	want := corpusDigests(t, "pruned")
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
				if w.Family == "phoenix" {
					rep, err := p.FenceOptimize(in)
					if err != nil {
						t.Fatalf("%s: fence optimization: %v", cell, err)
					}
					if !rep.FencesRemovable {
						p.ForceFenceRemoval()
					}
				}
				rec, err := p.Recompile()
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				checkDigest(t, want, cell, marshalImg(t, rec))
			}
		}
	}
	checkNoStaleDigests(t, want)
}
