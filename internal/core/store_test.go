package core_test

// Differential tests for the staged artifact pipeline over the tiered
// store: the recompiled bytes must be identical cold, memory-warm,
// disk-warm (including across a process restart, modeled here as a fresh
// Disk handle + fresh Project over the same directory), at any -jpipe
// width, and in the face of arbitrary on-disk corruption — which must
// degrade to counted misses, never an error or different output
// (DESIGN.md §3).

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/disasm"
	"repro/internal/store"
	"repro/internal/workloads"
)

// diskProject builds a project for src over a fresh Disk handle on dir —
// each call models a separate process attaching to the same store.
func diskProject(t *testing.T, src string, dir string, workers int) *core.Project {
	t.Helper()
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := options()
	o.Workers = workers
	o.Store = d
	p, err := core.NewProject(compile(t, src, 2), o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStoreDifferentialIdentity(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"threaded", threadedSrc},
		{"fptr", fptrSrc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := compile(t, tc.src, 2)
			_, want := recompileWith(t, img, func(o *core.Options) {
				o.Workers = 1
				o.NoFuncCache = true
			})

			dir := t.TempDir()
			// Cold run populates the disk tier.
			cold := diskProject(t, tc.src, dir, 1)
			rec, err := cold.Recompile()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, marshalImg(t, rec)) {
				t.Fatal("cold disk-backed recompile diverged from serial baseline")
			}
			if cold.Stats.StoreDiskHits != 0 {
				t.Fatalf("cold run reported %d disk hits", cold.Stats.StoreDiskHits)
			}
			if cold.Stats.StoreDiskMisses == 0 {
				t.Fatal("cold run recorded no disk misses")
			}

			// Disk-warm runs across a "restart" (fresh handle + project), at
			// serial and parallel pipeline widths: byte-identical, served
			// from disk.
			for _, workers := range []int{1, 8} {
				p := diskProject(t, tc.src, dir, workers)
				rec, err := p.Recompile()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, marshalImg(t, rec)) {
					t.Fatalf("disk-warm recompile (workers=%d) diverged", workers)
				}
				if p.Stats.StoreDiskHits == 0 {
					t.Fatalf("disk-warm recompile (workers=%d) never hit the disk tier", workers)
				}
				// Memory-warm on the same project: still identical.
				rec2, err := p.Recompile()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, marshalImg(t, rec2)) {
					t.Fatalf("memory-warm recompile (workers=%d) diverged", workers)
				}
			}
		})
	}
}

// TestStoreTraceReplayAcrossRestart pins the trace artifact: a second
// project over the same disk store replays the ICFT session — same merged
// graph, same reported counts (Table 4 prints them) — without executing the
// program, and the recompiled bytes match.
func TestStoreTraceReplayAcrossRestart(t *testing.T) {
	in := core.Input{Data: []byte("012"), Seed: 3}
	dir := t.TempDir()

	run := func(workers int) (*core.Project, []byte) {
		p := diskProject(t, fptrSrc, dir, workers)
		res, err := p.Trace([]core.Input{in})
		if err != nil {
			t.Fatal(err)
		}
		if res.ICFTs == 0 {
			t.Fatal("trace merged nothing")
		}
		rec, err := p.Recompile()
		if err != nil {
			t.Fatal(err)
		}
		return p, marshalImg(t, rec)
	}

	p1, bytes1 := run(1)
	p2, bytes2 := run(8)
	if !bytes.Equal(bytes1, bytes2) {
		t.Fatal("trace-replayed recompile diverged from the traced original")
	}
	if p2.Stats.ICFTs != p1.Stats.ICFTs || p2.Stats.TraceInsts != p1.Stats.TraceInsts {
		t.Fatalf("replayed trace counts differ: icfts %d vs %d, insts %d vs %d",
			p2.Stats.ICFTs, p1.Stats.ICFTs, p2.Stats.TraceInsts, p1.Stats.TraceInsts)
	}
	if p2.Stats.StoreDiskHits == 0 {
		t.Fatal("second session never hit the disk tier")
	}
}

// TestStoreAdditiveAcrossRestart replays a whole additive session against a
// warm disk store: every loop's recompile is served as an image artifact,
// and the converged bytes match the cold session's.
func TestStoreAdditiveAcrossRestart(t *testing.T) {
	in := core.Input{Data: []byte("012"), Seed: 3}
	dir := t.TempDir()

	p1 := diskProject(t, fptrSrc, dir, 0)
	res1, err := p1.RunAdditive(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	p2 := diskProject(t, fptrSrc, dir, 0)
	res2, err := p2.RunAdditive(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalImg(t, res1.Img), marshalImg(t, res2.Img)) {
		t.Fatal("disk-warm additive session diverged from the cold one")
	}
	if res2.Recompiles != res1.Recompiles {
		t.Fatalf("warm session took %d recompiles, cold took %d", res2.Recompiles, res1.Recompiles)
	}
	if p2.Stats.StoreDiskHits == 0 {
		t.Fatal("warm additive session never hit the disk tier")
	}
	if p2.Stats.CacheMisses != 0 {
		t.Fatalf("warm additive session re-lifted %d functions; every recompile should be an image replay",
			p2.Stats.CacheMisses)
	}
}

// TestStoreCorruptionDegradesToMiss corrupts every on-disk artifact after a
// cold run; a fresh session over the damaged store must still produce the
// identical bytes with zero errors, counting the rejects.
func TestStoreCorruptionDegradesToMiss(t *testing.T) {
	img := compile(t, threadedSrc, 2)
	_, want := recompileWith(t, img, func(o *core.Options) {
		o.Workers = 1
		o.NoFuncCache = true
	})
	dir := t.TempDir()

	cold := diskProject(t, threadedSrc, dir, 1)
	if _, err := cold.Recompile(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte near the end of every stored entry (payload region, so
	// the checksum check must catch it).
	corrupted := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if len(data) == 0 {
			return nil
		}
		data[len(data)-1] ^= 0xff
		corrupted++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("cold run left nothing on disk to corrupt")
	}

	d2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := options()
	o.Store = d2
	p2, err := core.NewProject(compile(t, threadedSrc, 2), o)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := p2.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, marshalImg(t, rec)) {
		t.Fatal("recompile over corrupted store diverged")
	}
	if p2.Stats.StoreDiskHits != 0 {
		t.Fatalf("corrupted store served %d hits", p2.Stats.StoreDiskHits)
	}
	st := d2.Stats()["disk"]
	if st.Corrupt == 0 {
		t.Fatal("corrupt entries were not counted")
	}
}

// TestNewProjectRejectsImageWithoutText: a missing .text section, the one
// input disassembly rejects, fails NewProject with the store off, over a
// private store (where the graph is not built until a stage needs it), and
// over a daemon's shared store.
func TestNewProjectRejectsImageWithoutText(t *testing.T) {
	img := compile(t, threadedSrc, 2)
	img.Text().Name = ".code"
	for _, tc := range []struct {
		name string
		set  func(*core.Options)
	}{
		{"off", func(o *core.Options) { o.NoFuncCache = true }},
		{"private", func(o *core.Options) { o.Store = store.NewMemory() }},
		{"shared", func(o *core.Options) { o.SharedStore = store.NewTiered(store.NewMemory(), nil) }},
	} {
		o := options()
		tc.set(&o)
		if _, err := core.NewProject(img, o); !errors.Is(err, disasm.ErrNoText) {
			t.Errorf("store %s: NewProject error %v, want %v", tc.name, err, disasm.ErrNoText)
		}
	}
}

// replayStats are the Stats fields a replayed recompile must report exactly
// as a live one does.
type replayStats struct {
	Funcs, Blocks, CodeSize, Fences, NumExternal, ICFTs int
	TraceInsts                                          uint64
	FencesGone                                          bool
}

// countingStore counts a backing tier's Gets per namespace; the pipeline's
// workers call it concurrently.
type countingStore struct {
	store.Store
	mu   sync.Mutex
	gets map[string]int
}

func (c *countingStore) Get(ns string, key store.Key) ([]byte, string, bool) {
	c.mu.Lock()
	c.gets[ns]++
	c.mu.Unlock()
	return c.Store.Get(ns, key)
}

// TestReplayIdentityAcrossCorpus runs every corpus (image, target) key,
// traced on its primary input, three ways: store off, over a cold disk store,
// and as a warm replay from that store in a fresh process (a new Disk handle
// and project). All three must give identical image bytes and Stats, and the
// store-off image must match its committed digest (digest_test.go). The
// warm run replays the trace and image artifacts through derivation keys,
// so this pins that equal keys name equal graphs across the corpus. It
// never materializes the graph: its disk tier serves exactly one trace and
// one image Get and no cfg Get, and it spends no time disassembling.
func TestReplayIdentityAcrossCorpus(t *testing.T) {
	digests := corpusDigests(t, "traced")
	for _, w := range workloads.All() {
		for _, lvl := range []int{0, 2} {
			img, err := w.Compile(lvl)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for _, target := range []string{"mx64", "mx64w"} {
				name := fmt.Sprintf("%s/O%d/%s", w.Name, lvl, target)
				run := func(disk bool) (*core.Project, []byte, replayStats, map[string]int) {
					o := core.DefaultOptions()
					o.Target = target
					o.NoFuncCache = !disk
					gets := map[string]int{}
					if disk {
						d, err := store.OpenDisk(dir)
						if err != nil {
							t.Fatal(err)
						}
						o.Store = &countingStore{Store: d, gets: gets}
					}
					p, err := core.NewProject(img, o)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := p.Trace([]core.Input{w.Input()}); err != nil {
						t.Fatalf("%s: trace: %v", name, err)
					}
					rec, err := p.Recompile()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					s := &p.Stats
					return p, marshalImg(t, rec), replayStats{s.Funcs, s.Blocks, s.CodeSize, s.Fences,
						s.NumExternal, s.ICFTs, s.TraceInsts, s.FencesGone}, gets
				}
				_, want, wantStats, _ := run(false)
				checkDigest(t, digests, name+"/traced", want)
				cold, coldImg, coldStats, _ := run(true)
				warm, warmImg, warmStats, warmGets := run(true)
				if !bytes.Equal(coldImg, want) || coldStats != wantStats {
					t.Errorf("%s: cold-store recompile diverged from store off: stats %+v, want %+v", name, coldStats, wantStats)
				}
				if !bytes.Equal(warmImg, want) || warmStats != wantStats {
					t.Errorf("%s: warm replay diverged from store off: stats %+v, want %+v", name, warmStats, wantStats)
				}
				if cold.Stats.CacheMisses == 0 || warm.Stats.CacheHits+warm.Stats.CacheMisses != 0 || warm.Stats.StoreDiskMisses != 0 {
					t.Errorf("%s: functions built cold %d, warm %d, warm disk misses %d; want some, 0, 0", name,
						cold.Stats.CacheMisses, warm.Stats.CacheHits+warm.Stats.CacheMisses, warm.Stats.StoreDiskMisses)
				}
				if wantGets := map[string]int{"trace": 1, "image": 1}; !reflect.DeepEqual(warmGets, wantGets) || warm.Stats.DisasmTime != 0 {
					t.Errorf("%s: warm replay made disk Gets %v and spent %v disassembling; want %v and none",
						name, warmGets, warm.Stats.DisasmTime, wantGets)
				}
			}
		}
	}
	checkNoStaleDigests(t, digests)
}
