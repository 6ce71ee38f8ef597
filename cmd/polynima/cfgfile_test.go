package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/store"
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

// TestCFGCheckpointOverWarmStore starts a checkpointed session over a disk
// store an earlier project filled, where the project's graph is not built
// until something reads it: the starting checkpoint must be the graph,
// replayed from the store, byte-identical to the one a store-off session
// writes.
func TestCFGCheckpointOverWarmStore(t *testing.T) {
	img, _, err := cc.Compile(fptrSrc, cc.Config{Name: "t", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkpoint := func(o core.Options) []byte {
		path := filepath.Join(t.TempDir(), "session.cfg.json")
		if _, _, err := resumeProject(img, path, o); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	off := core.DefaultOptions()
	off.NoFuncCache = true
	want := checkpoint(off)

	dir := t.TempDir()
	disk := func() *store.Disk {
		d, err := store.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	o := core.DefaultOptions()
	o.Store = disk()
	p, err := core.NewProject(img, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Recompile(); err != nil {
		t.Fatal(err)
	}
	d := disk()
	o.Store = d
	got := checkpoint(o)
	if bytes.Equal(bytes.TrimSpace(got), []byte("null")) {
		t.Fatal("the starting checkpoint over a warm store is a null graph")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the starting checkpoint over a warm store differs from the store-off one")
	}
	if d.Stats()["disk"].Hits == 0 {
		t.Fatal("the session never read the warm store")
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
