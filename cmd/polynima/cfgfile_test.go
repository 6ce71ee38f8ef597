package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
)

const fptrSrc = `
extern input_byte;
func h_add(x) { return x + 10; }
func h_mul(x) { return x * 10; }
func h_neg(x) { return -x; }
var table[3];
func main() {
	store64(table, h_add);
	store64(table + 8, h_mul);
	store64(table + 16, h_neg);
	var sum = 0;
	var c = input_byte();
	while (c != -1) {
		var f = load64(table + (c - '0') * 8);
		sum = sum + f(7);
		c = input_byte();
	}
	return sum;
}`

// TestCFGCheckpointResume runs an additive session with a -cfg checkpoint,
// then resumes from the file in a second session: the resumed project starts
// from the converged graph, so the loop integrates no further misses.
func TestCFGCheckpointResume(t *testing.T) {
	img, _, err := cc.Compile(fptrSrc, cc.Config{Name: "t", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "session.cfg.json")
	in := core.Input{Data: []byte("012"), Seed: 3}

	p1, resumed, err := resumeProject(img, path, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("fresh session claims to have resumed")
	}
	res1, err := p1.RunAdditive(in, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Recompiles < 3 {
		t.Fatalf("recompiles = %d, want >= 3 (three unknown handlers)", res1.Recompiles)
	}

	p2, resumed, err := resumeProject(img, path, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("second session did not resume from the checkpoint")
	}
	res2, err := p2.RunAdditive(in, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Recompiles != 0 {
		t.Fatalf("resumed session looped %d times; the checkpointed CFG already covers every target", res2.Recompiles)
	}
	if res2.Result.ExitCode != res1.Result.ExitCode {
		t.Fatalf("resumed exit %d, original %d", res2.Result.ExitCode, res1.Result.ExitCode)
	}
}

func TestLoadCFGMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	g, err := loadCFG(filepath.Join(dir, "absent.json"))
	if err != nil || g != nil {
		t.Fatalf("missing checkpoint: got (%v, %v), want (nil, nil)", g, err)
	}
	for name, data := range map[string]string{
		"torn.json": `{"Blocks": [tru`,
		// A function listing a block the graph does not hold: lifting it
		// would dereference a nil block.
		"missing-block.json": `{"entry":1,"funcs":[{"entry":1,"blocks":[1,9]}],"blocks":[{"addr":1,"size":1,"term":"ret"}]}`,
	} {
		bad := filepath.Join(dir, name)
		if err := os.WriteFile(bad, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadCFG(bad); err == nil || !strings.Contains(err.Error(), "delete the file") {
			t.Fatalf("%s: err = %v, want a decode error with the delete hint", name, err)
		}
	}
}
