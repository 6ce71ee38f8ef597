package core

// Internal edge-case tests for the store-backed artifacts: a stored body
// whose symbol references no longer resolve in a fresh module degrades to a
// counted miss that the recompile then repairs, a stored CFG that names a
// block it does not hold is re-disassembled, a stored image that breaks the
// section rules is rebuilt, and under planted trace artifacts a project
// whose graph materializes on first use keeps the keys and callback set of
// one that builds its graph up front.

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/lifter"
	"repro/internal/store"
	"repro/internal/tracer"
)

const edgeFptrSrc = `
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

func edgeProject(t *testing.T) *Project {
	t.Helper()
	img, _, err := cc.Compile(edgeFptrSrc, cc.Config{Name: "t", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.VerifyIR = true
	p, err := NewProject(img, o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStaleFuncArtifactDegradesToMiss plants a well-formed body artifact
// under a function's exact store key whose serialized references name a
// symbol the fresh module does not define — the persisted analogue of a
// module that renamed or dropped a global. Replay must reject it as a miss,
// the recompile must produce the same bytes a cache-less run does, and the
// poisoned entry must end up overwritten by the freshly built body.
func TestStaleFuncArtifactDegradesToMiss(t *testing.T) {
	p := edgeProject(t)

	g, err := p.CFG()
	if err != nil {
		t.Fatal(err)
	}
	funcs := lifter.SortedFuncs(g)
	if len(funcs) == 0 {
		t.Fatal("no functions in graph")
	}
	isFunc := make(map[uint64]bool, len(funcs))
	for _, cf := range funcs {
		isFunc[cf.Entry] = true
	}
	ko := p.keyOpts(p.buildState(), p.target().ID)
	key, ok := p.funcKey(fingerprintFunc(p.Img, g, funcs[0], isFunc, ko))
	if !ok {
		t.Fatal("funcKey unavailable")
	}

	pm := ir.NewModule("poison")
	pg := pm.NewGlobal("no_such_global", 8)
	pf := pm.NewFunc("poison")
	pb := pf.NewBlock("entry")
	ga := pb.Append(ir.OpGlobalAddr)
	ga.Global = pg
	pb.Append(ir.OpRet)
	enc, err := ir.EncodeFunc(pf)
	if err != nil {
		t.Fatal(err)
	}
	poison := make([]byte, 8, 8+len(enc))
	binary.LittleEndian.PutUint64(poison, 0)
	poison = append(poison, enc...)
	p.storePut(nsFunc, key, poison)

	rec, err := p.Recompile()
	if err != nil {
		t.Fatalf("recompile over stale artifact errored: %v", err)
	}
	got, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.CacheHits != 0 {
		t.Fatalf("stale artifact was replayed as %d hits", p.Stats.CacheHits)
	}
	if p.Stats.CacheMisses != p.Stats.Funcs {
		t.Fatalf("misses = %d, want %d (every function freshly lifted)", p.Stats.CacheMisses, p.Stats.Funcs)
	}

	// Baseline: same image, cache off, serial.
	img2, _, err := cc.Compile(edgeFptrSrc, cc.Config{Name: "t", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.VerifyIR = true
	o.Workers = 1
	o.NoFuncCache = true
	p2, err := NewProject(img2, o)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := p2.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := rec2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recompile over stale artifact diverged from cache-less baseline")
	}

	// The entry was repaired: the stored payload is now the fresh body, not
	// the poison.
	data, _, ok := p.store.Get(nsFunc, key)
	if !ok {
		t.Fatal("function entry missing after recompile")
	}
	if bytes.Equal(data, poison) {
		t.Fatal("poisoned artifact survived the recompile")
	}
}

// TestPoisonedCFGArtifactFallsBackToDisassembly seeds a shared store, as any
// daemon client may PUT it, with a graph under the image's cfg key whose
// entry function lists a block the graph does not hold. NewProject must
// treat it as a miss and disassemble, Recompile must return a clean
// project's bytes instead of dereferencing the missing block, and the
// entry must end up overwritten by the disassembled graph.
func TestPoisonedCFGArtifactFallsBackToDisassembly(t *testing.T) {
	img, _, err := cc.Compile(edgeFptrSrc, cc.Config{Name: "t", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.VerifyIR = true
	clean, err := NewProject(img, o)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := clean.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	poisoned := clean.Graph.Clone()
	fn := poisoned.Func(poisoned.Entry)
	fn.Blocks = append(fn.Blocks, 0xdead0)
	poison := poisoned.EncodeBinary()
	if _, err := cfg.DecodeBinary(poison); err == nil || !strings.Contains(err.Error(), "missing block") {
		t.Fatalf("poison decodes with %v; want Validate's missing-block error", err)
	}
	o.SharedStore = store.NewTiered(store.NewMemory(), nil)
	key, ok := newProjectShell(img, o).cfgKey()
	if !ok {
		t.Fatal("no cfg key")
	}
	o.SharedStore.Put(nsCFG, key, poison)

	p, err := NewProject(img, o)
	if err != nil {
		t.Fatal(err)
	}
	rec, err = p.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recompile after a poisoned cfg artifact diverged from a clean project")
	}
	if err := p.Graph.Validate(); err != nil {
		t.Fatalf("project kept the poisoned graph: %v", err)
	}
	data, _, ok := o.SharedStore.Get(nsCFG, key)
	if !ok {
		t.Fatal("cfg entry missing after disassembly")
	}
	if _, err := cfg.DecodeBinary(data); err != nil {
		t.Fatalf("poisoned cfg artifact survived: %v", err)
	}
}

// TestPoisonedImageArtifactIsRebuilt seeds a shared store, as any daemon
// client may PUT it, with an image artifact whose stats parse but whose
// binary image breaks the section geometry rules. The project must rebuild
// the image through the full pipeline, return the store-off bytes, and
// overwrite the entry with one that decodes.
func TestPoisonedImageArtifactIsRebuilt(t *testing.T) {
	img, _, err := cc.Compile(edgeFptrSrc, cc.Config{Name: "t", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.NoFuncCache = true
	clean, err := NewProject(img, o)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := clean.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	bad := rec.Clone()
	bad.Sections[1].Addr = bad.Sections[0].Addr // overlaps the first section
	poison := encodeImageArtifact(bad, 1, 2, 3, false)
	if _, _, _, _, _, ok := decodeImageArtifact(poison); ok {
		t.Fatal("poisoned image artifact decodes")
	}
	o.NoFuncCache = false
	o.SharedStore = store.NewTiered(store.NewMemory(), nil)
	p, err := NewProject(img, o)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := p.imageKey()
	if !ok {
		t.Fatal("no image key")
	}
	o.SharedStore.Put(nsImage, key, poison)
	if rec, err = p.Recompile(); err != nil {
		t.Fatal(err)
	}
	got, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recompile after a poisoned image artifact diverged from a clean project")
	}
	data, _, ok := o.SharedStore.Get(nsImage, key)
	if !ok {
		t.Fatal("image entry missing after the rebuild")
	}
	if _, _, _, _, _, ok := decodeImageArtifact(data); !ok {
		t.Fatal("poisoned image artifact survived")
	}
}

// TestNoStoreComputesNoKeys pins that a project with the artifact store off
// derives no cfg, trace or image key, so it fingerprints and encodes
// nothing for artifacts it would throw away; the same project with the
// store on derives all three.
func TestNoStoreComputesNoKeys(t *testing.T) {
	img, _, err := cc.Compile(edgeFptrSrc, cc.Config{Name: "t", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []bool{true, false} {
		o := DefaultOptions()
		o.NoFuncCache = off
		p, err := NewProject(img, o)
		if err != nil {
			t.Fatal(err)
		}
		_, cfgOK := p.cfgKey()
		_, traceOK := p.traceKey(p.runsKey(p.tracerRuns(nil)))
		_, imageOK := p.imageKey()
		if cfgOK == off || traceOK == off || imageOK == off {
			t.Errorf("NoFuncCache=%v: cfg, trace, image keys derived = %v, %v, %v; want %v",
				off, cfgOK, traceOK, imageOK, !off)
		}
	}
}

// TestPoisonedTracePairsDoNotSpread seeds a shared store, as any daemon
// client may PUT it, with a trace artifact of two pairs under a session's
// trace key: the first applies (the real indirect-call site, plus a known
// function entry no run calls through it), the second does not (site 0).
// The project must fall back to a live session; its graph keeps the first
// pair, so its recompile differs from a clean one. A second project over the
// same store must then return the store-off bytes: the first project's key
// restarted from its graph's content, so it filed its image under a key no
// clean project computes.
func TestPoisonedTracePairsDoNotSpread(t *testing.T) {
	img, _, err := cc.Compile(edgeFptrSrc, cc.Config{Name: "t", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := []Input{{Data: []byte("0"), Seed: 3}}
	o := DefaultOptions()
	o.NoFuncCache = true
	clean, err := NewProject(img, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Trace(in); err != nil {
		t.Fatal(err)
	}
	rec, err := clean.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var site *cfg.Block
	for _, b := range clean.Graph.Blocks {
		if b.Term == cfg.TermCallInd && len(b.Targets) > 0 && (site == nil || b.Addr < site.Addr) {
			site = b
		}
	}
	if site == nil {
		t.Fatal("no traced indirect call site")
	}
	var extra uint64
	for _, f := range clean.Graph.Funcs {
		if f.Entry != clean.Graph.Entry && !site.HasTarget(f.Entry) {
			extra = f.Entry
		}
	}
	if extra == 0 {
		t.Fatal("no function to poison the site with")
	}
	poison := encodeTraceArtifact(&tracer.Result{ICFTs: 2, Runs: 1,
		Merged: []tracer.SiteTarget{{Site: site.Addr, Target: extra}, {Site: 0, Target: extra}}})

	o.NoFuncCache = false
	o.SharedStore = store.NewTiered(store.NewMemory(), nil)
	project := func() (*Project, []byte) {
		p, err := NewProject(img, o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Trace(in); err != nil {
			t.Fatal(err)
		}
		rec, err := p.Recompile()
		if err != nil {
			t.Fatal(err)
		}
		got, err := rec.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return p, got
	}
	p0, err := NewProject(img, o)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := p0.traceKey(p0.runsKey(p0.tracerRuns(in)))
	if !ok {
		t.Fatal("no trace key")
	}
	o.SharedStore.Put(nsTrace, key, poison)

	p1, got := project()
	if !p1.Graph.Blocks[site.Addr].HasTarget(extra) {
		t.Fatal("the poisoned project never merged the applicable pair")
	}
	if bytes.Equal(got, want) {
		t.Fatal("the applicable poisoned pair left the image unchanged; the test would prove nothing")
	}
	if p1.Stats.TraceInsts == 0 {
		t.Fatal("the poisoned project replayed instead of tracing live")
	}
	if _, got = project(); !bytes.Equal(got, want) {
		t.Fatal("a project after the poisoned one did not return the store-off bytes")
	}
}

// TestEmptyTraceKeepsImageKey: a session that merges nothing leaves the
// derivation key, and so the image key, as it was, so a request traced at
// a new seed that finds nothing new replays the stored image.
func TestEmptyTraceKeepsImageKey(t *testing.T) {
	img, _, err := cc.Compile(`
extern print_i64;
func main() { print_i64(7); return 0; }`, cc.Config{Name: "t", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.SharedStore = store.NewTiered(store.NewMemory(), nil)
	for seed := int64(1); seed <= 2; seed++ {
		p, err := NewProject(img, o)
		if err != nil {
			t.Fatal(err)
		}
		before, ok := p.imageKey()
		if !ok {
			t.Fatal("no image key")
		}
		res, err := p.Trace([]Input{{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Merged) != 0 {
			t.Fatalf("seed %d: trace merged %d pairs; the test needs a program with none", seed, len(res.Merged))
		}
		if after, _ := p.imageKey(); after != before {
			t.Fatalf("seed %d: an empty session changed the image key", seed)
		}
		if _, err := p.Recompile(); err != nil {
			t.Fatal(err)
		}
		if built := p.Stats.CacheHits + p.Stats.CacheMisses; (seed == 1) != (built > 0) {
			t.Fatalf("seed %d: recompile built %d functions; want a pipeline run only at seed 1", seed, built)
		}
	}
}

// TestPoisonedSessionDifferential pins the lazy graph against the eager
// order. Each case plants trace artifacts in a fresh backing store and runs
// a sequence of calls twice over it, each time with a private memory tier:
// on a project whose graph materializes on first use, and on one that calls
// CFG right after NewProject. Both must return
// the same bytes, name the same image key, hold the same callback set, and
// file their artifacts under the same keys.
//   - partial: TestPoisonedTracePairsDoNotSpread's artifact. Its first pair
//     applies, its second does not, so the lazy project's deferred session
//     takes Trace's fallback when the graph materializes: in a second Trace
//     at another seed, in Recompile, or in CFG before PruneCallbacks. A
//     callback set taken from the planted entries, or taken after the
//     fallback replaced the session, must come from the live entries.
//   - applies: every pair applies, and the deferred session merges as
//     stored.
//   - rekeyed: partial, plus one artifact under the second session's lazy
//     key, which defers it too, and another under the key the fallback
//     re-keys it to, which the eager project replays.
func TestPoisonedSessionDifferential(t *testing.T) {
	img, _, err := cc.Compile(edgeFptrSrc, cc.Config{Name: "t", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := []Input{{Data: []byte("0"), Seed: 3}}
	in2 := []Input{{Data: []byte("0"), Seed: 4}}
	o := DefaultOptions()
	o.NoFuncCache = true
	clean, err := NewProject(img, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.Trace(in); err != nil {
		t.Fatal(err)
	}
	var site *cfg.Block
	for _, b := range clean.Graph.Blocks {
		if b.Term == cfg.TermCallInd && len(b.Targets) > 0 && (site == nil || b.Addr < site.Addr) {
			site = b
		}
	}
	if site == nil {
		t.Fatal("no traced indirect call site")
	}
	var spare []uint64 // functions the site does not yet call
	for _, f := range clean.Graph.Funcs {
		if f.Entry != clean.Graph.Entry && !site.HasTarget(f.Entry) {
			spare = append(spare, f.Entry)
		}
	}
	if len(spare) < 2 {
		t.Fatal("too few functions to poison the site with")
	}
	extra := spare[0]
	applies := tracer.SiteTarget{Site: site.Addr, Target: extra}
	// Planted entries name a function no run enters from the host, so a
	// callback set taken from them differs from a live one.
	artifact := func(merged ...tracer.SiteTarget) []byte {
		return encodeTraceArtifact(&tracer.Result{ICFTs: len(merged), Runs: 1, Merged: merged,
			Entries: []uint64{extra}})
	}
	partial := artifact(applies, tracer.SiteTarget{Site: 0, Target: extra})
	// session2Key is the key a project puts the second session under after
	// the first, with the graph materialized first or not.
	session2Key := func(st store.Store, cfgFirst bool) store.Key {
		o := DefaultOptions()
		o.Store = st
		p, err := NewProject(img, o)
		if err != nil {
			t.Fatal(err)
		}
		if cfgFirst {
			if _, err := p.CFG(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Trace(in); err != nil {
			t.Fatal(err)
		}
		key, ok := p.traceKey(p.runsKey(p.tracerRuns(in2)))
		if !ok {
			t.Fatal("no trace key")
		}
		return key
	}

	for _, tc := range []struct {
		name  string
		plant func(st store.Store, key store.Key)
		calls string
	}{
		{"partial/second-trace", plantAt(partial), "trace prune trace2 recompile"},
		{"partial/recompile", plantAt(partial), "trace prune recompile"},
		{"partial/cfg-before-prune", plantAt(partial), "trace cfg prune recompile"},
		{"applies/second-trace", plantAt(artifact(applies)), "trace prune trace2 recompile"},
		{"applies/recompile", plantAt(artifact(applies)), "trace prune recompile"},
		{"rekeyed", func(st store.Store, key store.Key) {
			// Both keys are computed over scratch stores, so that nothing
			// but the three artifacts is planted.
			scratch := func() store.Store {
				s := store.NewMemory()
				s.Put(nsTrace, key, partial)
				return s
			}
			lazy2, eager2 := session2Key(scratch(), false), session2Key(scratch(), true)
			if lazy2 == eager2 {
				t.Fatal("the fallback did not re-key the second session")
			}
			st.Put(nsTrace, key, partial)
			st.Put(nsTrace, lazy2, artifact())
			st.Put(nsTrace, eager2, artifact(tracer.SiteTarget{Site: site.Addr, Target: spare[1]}))
		}, "trace trace2 recompile"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				image     []byte
				imageKey  store.Key
				callbacks map[uint64]bool
				puts      map[string]bool
			}
			run := func(cfgFirst bool) outcome {
				backing := store.NewMemory()
				log := &putLog{Store: backing, puts: map[string]bool{}}
				o := DefaultOptions()
				o.Store = log
				p, err := NewProject(img, o)
				if err != nil {
					t.Fatal(err)
				}
				key, ok := p.traceKey(p.runsKey(p.tracerRuns(in)))
				if !ok {
					t.Fatal("no trace key")
				}
				tc.plant(backing, key)
				if cfgFirst {
					if _, err := p.CFG(); err != nil {
						t.Fatal(err)
					}
				}
				var rec *image.Image
				for _, call := range strings.Fields(tc.calls) {
					switch call {
					case "trace":
						_, err = p.Trace(in)
						if !cfgFirst && p.Graph != nil {
							t.Fatal("the replayed session materialized the graph")
						}
					case "trace2":
						_, err = p.Trace(in2)
					case "prune":
						err = p.PruneCallbacks(in)
					case "cfg":
						_, err = p.CFG()
					case "recompile":
						rec, err = p.Recompile()
					}
					if err != nil {
						t.Fatalf("%s: %v", call, err)
					}
				}
				if !p.Graph.Blocks[site.Addr].HasTarget(extra) {
					t.Fatal("the planted pair that applies was never merged")
				}
				imgKey, ok := p.imageKey()
				if !ok {
					t.Fatal("no image key")
				}
				data, err := rec.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				return outcome{data, imgKey, p.callbackSet, log.puts}
			}
			want, got := run(true), run(false)
			if !bytes.Equal(got.image, want.image) {
				t.Error("lazy project's recompile diverged from the CFG-first project's")
			}
			if got.imageKey != want.imageKey {
				t.Error("lazy project named another image key than the CFG-first project")
			}
			if !reflect.DeepEqual(got.callbacks, want.callbacks) {
				t.Errorf("callback sets differ: lazy %v, CFG-first %v", got.callbacks, want.callbacks)
			}
			if !reflect.DeepEqual(got.puts, want.puts) {
				t.Errorf("artifacts filed under different keys:\nlazy      %v\nCFG-first %v", got.puts, want.puts)
			}
		})
	}
}

// plantAt returns a plant function that stores a trace artifact under the
// first session's key.
func plantAt(artifact []byte) func(store.Store, store.Key) {
	return func(st store.Store, key store.Key) { st.Put(nsTrace, key, artifact) }
}

// putLog is a backing tier that records the namespace and key of every
// Put; the pipeline's workers call it concurrently.
type putLog struct {
	store.Store
	mu   sync.Mutex
	puts map[string]bool
}

func (l *putLog) Put(ns string, key store.Key, data []byte) {
	l.mu.Lock()
	l.puts[ns+"/"+key.Hex()] = true
	l.mu.Unlock()
	l.Store.Put(ns, key, data)
}

// encodeImageArtifact and decodeImageArtifact are the image artifact codec
// with the stats spelled out; the graph's counts encode as zero.
func encodeImageArtifact(img *image.Image, codeSize, numExternal, fences int, fencesGone bool) []byte {
	return imageStats{codeSize: codeSize, numExternal: numExternal, fences: fences, fencesGone: fencesGone}.encode(img)
}

func decodeImageArtifact(data []byte) (img *image.Image, codeSize, numExternal, fences int, fencesGone, ok bool) {
	img, st, ok := decodeImage(data)
	return img, st.codeSize, st.numExternal, st.fences, st.fencesGone, ok
}
