// Staged artifacts over the tiered content-addressed store.
//
// The pipeline is a sequence of explicit stages —
//
//	disasm -> ICFT trace/merge -> skeleton -> per-function lift+opt
//	  -> finalize -> verify -> lower
//
// — and each stage that is worth replaying declares a typed artifact plus a
// sha256 fingerprint over its full input set (internal/store.Key). This
// file defines the four artifact namespaces, their key composition, and
// their payload envelopes:
//
//	cfg    static disassembly CFG        key: image
//	                                     payload: cfg.Graph.EncodeBinary
//	trace  one ICFT trace/merge session  key: image, pre-trace graph's
//	                                          derivation key, runsKey
//	                                          (fuel; every run's seed,
//	                                          input, ext names)
//	                                     payload: counts + merged pairs
//	                                          + guest entries
//	func   one lifted+optimized body     key: fingerprintFunc (machine
//	                                          bytes, CFG shape, option
//	                                          bits, target id) + image
//	                                     payload: site count + ir.EncodeFunc
//	image  the final lowered image       key: image, merged graph's
//	                                          derivation key, option bits,
//	                                          target id, callback set
//	                                     payload: stats (the graph's
//	                                          funcs and blocks included) +
//	                                          image.Image.EncodeBinary
//
// "image" in a key is the input fingerprint (imageFP): a hash of the input
// image's binary encoding, which covers every field, Name and Machine
// included.
//
// Every key starts with a schema tag, so an encoding change orphans old
// entries instead of misreading them; every payload decode failure is a
// miss (the stage recomputes), never an error. The determinism contract
// (DESIGN.md §3) is what makes replay sound: a stage's output is a pure
// function of its fingerprinted inputs, byte-identical at any worker count,
// so recompute and replay are indistinguishable.
//
// Derivation keys. After disassembly the graph changes only when observed
// (site, target) pairs are merged into it (§3.2), so the project names its
// graph by where it started and what was merged, in order, instead of
// serializing it for every key:
//   - after NewProject the key is the cfg key, disassembled or replayed
//     alike (the graph is a pure function of the image bytes); after
//     NewProjectWithGraph it is contentKey, a hash of the binary encoding;
//   - every merge batch that completes — a trace session, live or
//     replayed, or one additive miss batch — folds its pairs in merge order
//     (foldGraphKey); a batch of none leaves the key as it was;
//   - a merge that fails partway leaves its earlier pairs merged, a change
//     no fold names, so the key restarts from contentKey (restartGraphKey);
//   - a trace session that returns an error may have merged pairs its
//     result does not list, so graph-derived keys turn off for the rest of
//     the project.
//
// Equal keys name equal graphs because merging is deterministic:
// BlockContaining answers the same block for a site on every call, and the
// replay-identity and determinism tests pin the rest.
//
// Because the cfg key needs only the input fingerprint, the graph itself
// materializes on first use (Project.CFG): over a private store,
// NewProject reads nothing, and a replayed trace session folds its stored
// pairs into the key and stays pending. A stage that needs the graph — a live trace,
// a module build, an additive merge — replays the cfg artifact or
// disassembles, then merges the pending sessions in order, so a job whose
// trace and image artifacts hit never reads or decodes the cfg. A pending
// session whose pairs do not apply takes Trace's fallback at that point:
// the earlier pairs stay merged, the key restarts from contentKey, the
// session runs live on its runs and re-stores its artifact, and later
// pending sessions are re-keyed from there. So after the same calls a
// lazy project holds the same derivation key, image key and callback set
// as one that materialized in NewProject. Only the result the replaying
// Trace call already returned stays the stored one.
package core

import (
	"encoding/binary"
	"sort"

	"repro/internal/cfg"
	"repro/internal/image"
	"repro/internal/mx"
	"repro/internal/store"
	"repro/internal/tracer"
)

// Artifact namespaces (one payload schema each).
const (
	nsCFG   = "cfg"
	nsTrace = "trace"
	nsFunc  = "func"
	nsImage = "image"
)

// Schema tags folded into keys; bump alongside any payload format change.
var (
	schemaCFG   = []byte("cfg/3")   // v3: binary input fingerprint
	schemaTrace = []byte("trace/4") // v4: binary input fingerprint
	schemaFunc  = []byte("func/3")  // v3: binary input fingerprint
	schemaImage = []byte("image/5") // v5: the graph's funcs and blocks in the stats
)

// Tags of the input fingerprint and of the two derivation-key forms that
// are not a cfg key.
var (
	tagInputImage   = []byte("input-image/1")
	tagGraphContent = []byte("graph-content/1")
	tagGraphMerge   = []byte("graph-merge/1")
)

// storeGet probes the project's artifact store and attributes the outcome
// to the per-tier stats counters. Callers hold a key, so the store is on.
// "Disk" in the counter names means any backing tier — disk, remote, or a
// chain of both; the Store interface's tier string distinguishes them in
// spans and in the per-tier Counters.
func (p *Project) storeGet(ns string, key store.Key) ([]byte, string, bool) {
	data, tier, ok := p.store.Get(ns, key)
	hasBacking := p.store.HasBacking()
	p.Stats.update(func() {
		switch {
		case !ok:
			p.Stats.StoreMemMisses++
			if hasBacking {
				p.Stats.StoreDiskMisses++
			}
		case tier == "mem":
			p.Stats.StoreMemHits++
		default:
			p.Stats.StoreMemMisses++
			p.Stats.StoreDiskHits++
		}
	})
	return data, tier, ok
}

// storePut stores an artifact (write-through to every tier).
func (p *Project) storePut(ns string, key store.Key, data []byte) {
	p.store.Put(ns, key, data)
}

// imageFP is the fingerprint of the input image, the root of every
// artifact key: a hash of its binary encoding. Computed once per project;
// with the store off there is no key to compute, so every artifact key and
// payload is skipped.
func (p *Project) imageFP() (store.Key, bool) {
	if p.store == nil {
		return store.Key{}, false
	}
	p.imgFPOnce.Do(func() {
		p.imgFP = store.KeyOf(tagInputImage, p.Img.EncodeBinary())
	})
	return p.imgFP, true
}

// contentKey is the derivation key that names g by its content.
func contentKey(g *cfg.Graph) store.Key {
	return store.KeyOf(tagGraphContent, g.EncodeBinary())
}

// restartGraphKey renames Graph by its content after a change no fold
// names. With graph-derived keys off it does nothing.
func (p *Project) restartGraphKey() {
	if p.graphKeyOK {
		p.graphKey = contentKey(p.Graph)
	}
}

// foldGraphKey advances the derivation key over pairs just merged into
// Graph, in merge order. No pairs, no change.
func (p *Project) foldGraphKey(pairs []tracer.SiteTarget) {
	if !p.graphKeyOK || len(pairs) == 0 {
		return
	}
	buf := make([]byte, 0, 16*len(pairs))
	for _, st := range pairs {
		buf = binary.LittleEndian.AppendUint64(buf, st.Site)
		buf = binary.LittleEndian.AppendUint64(buf, st.Target)
	}
	p.graphKey = store.KeyOf(tagGraphMerge, p.graphKey[:], buf)
}

// cfgKey keys the static-disassembly artifact: the CFG is a pure function
// of the image bytes.
func (p *Project) cfgKey() (store.Key, bool) {
	imgFP, ok := p.imageFP()
	if !ok {
		return store.Key{}, false
	}
	return store.KeyOf(schemaCFG, imgFP[:]), true
}

// runsKey is the identity of one batch of runs of the original binary: the
// fuel bound and every run's seed, input bytes and sorted host-function
// names (the functions themselves are code, assumed stable for a given name
// set). Runs with equal keys observe the same execution, so PruneCallbacks
// reuses a trace session's guest entries when the keys match.
func (p *Project) runsKey(runs []tracer.Run) store.Key {
	parts := [][]byte{store.U64(p.Opts.Fuel), store.U64(uint64(len(runs)))}
	for _, r := range runs {
		parts = append(parts, store.U64(uint64(r.Seed)), r.Input)
		names := make([]string, 0, len(r.Exts))
		for name := range r.Exts {
			names = append(names, name)
		}
		sort.Strings(names)
		parts = append(parts, store.U64(uint64(len(names))))
		for _, name := range names {
			parts = append(parts, []byte(name))
		}
	}
	return store.KeyOf(parts...)
}

// traceKey keys one trace/merge session: the image, the derivation key of
// the graph the session starts from, and the identity of its runs.
func (p *Project) traceKey(runs store.Key) (store.Key, bool) {
	imgFP, ok := p.imageFP()
	if !ok || !p.graphKeyOK {
		return store.Key{}, false
	}
	return store.KeyOf(schemaTrace, imgFP[:], p.graphKey[:], runs[:]), true
}

// funcKey widens a per-function fingerprint (cache.go) into a store key by
// folding in the image fingerprint: bodies reference image data beyond
// their own machine bytes (original sections mapped as globals), so a
// shared disk tier must never alias bodies across input images.
func (p *Project) funcKey(fp [32]byte) (store.Key, bool) {
	imgFP, ok := p.imageFP()
	if !ok {
		return store.Key{}, false
	}
	return store.KeyOf(schemaFunc, fp[:], imgFP[:]), true
}

// imageKey keys the final lowered image: input image bytes, the merged
// graph's derivation key, option bits, and the dynamic-analysis state that
// shapes the module (callback set, fence removal — the latter is in the
// option bits).
func (p *Project) imageKey() (store.Key, bool) {
	imgFP, ok := p.imageFP()
	if !ok || !p.graphKeyOK {
		return store.Key{}, false
	}
	tgt := mx.TargetByName(p.Opts.Target)
	if tgt == nil {
		return store.Key{}, false
	}
	ko := p.keyOpts(p.buildState(), tgt.ID)
	parts := [][]byte{schemaImage, imgFP[:], p.graphKey[:], {ko.bits(), ko.target}}
	if p.callbackSet == nil {
		parts = append(parts, store.U64(^uint64(0)))
	} else {
		addrs := make([]uint64, 0, len(p.callbackSet))
		for a := range p.callbackSet {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		parts = append(parts, store.U64(uint64(len(addrs))))
		for _, a := range addrs {
			parts = append(parts, store.U64(a))
		}
	}
	return store.KeyOf(parts...), true
}

// encodeTraceArtifact serializes a trace session: the counters the caller
// reports (Table 4 prints ICFTs, so replay must restore them exactly), the
// merged pairs in merge order, and the guest entries the runs observed.
func encodeTraceArtifact(res *tracer.Result) []byte {
	buf := make([]byte, 0, 48+16*len(res.Merged)+8*len(res.Entries))
	u64 := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	u64(uint64(res.ICFTs))
	u64(uint64(res.NewTargets))
	u64(uint64(res.Runs))
	u64(res.Insts)
	u64(uint64(len(res.Merged)))
	for _, st := range res.Merged {
		u64(st.Site)
		u64(st.Target)
	}
	u64(uint64(len(res.Entries)))
	for _, fn := range res.Entries {
		u64(fn)
	}
	return buf
}

// decodeTraceArtifact parses encodeTraceArtifact's form; !ok on any
// mismatch (the caller falls back to a live trace). The payload may come
// from a shared store, so each count is checked against the bytes left
// before anything is sized by it.
func decodeTraceArtifact(data []byte) (*tracer.Result, bool) {
	u64 := func() uint64 {
		x := binary.LittleEndian.Uint64(data)
		data = data[8:]
		return x
	}
	// count reads a length prefix of items of size bytes each; !ok unless
	// the prefix and all of its items fit in what is left.
	count := func(size int) (int, bool) {
		if len(data) < 8 {
			return 0, false
		}
		n := u64()
		if n > uint64(len(data)/size) {
			return 0, false
		}
		return int(n), true
	}
	if len(data) < 32 {
		return nil, false
	}
	res := &tracer.Result{ICFTs: int(u64()), NewTargets: int(u64()), Runs: int(u64()), Insts: u64()}
	n, ok := count(16)
	if !ok {
		return nil, false
	}
	res.Merged = make([]tracer.SiteTarget, n)
	for i := range res.Merged {
		res.Merged[i] = tracer.SiteTarget{Site: u64(), Target: u64()}
	}
	if n, ok = count(8); !ok {
		return nil, false
	}
	res.Entries = make([]uint64, n)
	for i := range res.Entries {
		res.Entries[i] = u64()
	}
	return res, len(data) == 0
}

// imageStats is an image artifact's stats header: the scalar Stats a
// replayed Recompile restores, so cold and replayed runs report
// identically. funcs and blocks are the graph's counts, which a replay
// that never materializes the graph has from nowhere else.
type imageStats struct {
	codeSize, numExternal, fences, funcs, blocks int
	fencesGone                                   bool
}

// imageStatsLen is the encoded header's length: five counts and a flag.
const imageStatsLen = 5*8 + 1

// encode serializes st followed by the final lowered image's binary form.
func (st imageStats) encode(img *image.Image) []byte {
	data := img.EncodeBinary()
	buf := make([]byte, 0, imageStatsLen+len(data))
	for _, n := range []int{st.codeSize, st.numExternal, st.fences, st.funcs, st.blocks} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	}
	if st.fencesGone {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return append(buf, data...)
}

// decodeImage parses imageStats.encode's form; !ok on any mismatch (the
// caller rebuilds the image through the full pipeline).
func decodeImage(data []byte) (*image.Image, imageStats, bool) {
	if len(data) < imageStatsLen {
		return nil, imageStats{}, false
	}
	img, err := image.DecodeBinary(data[imageStatsLen:])
	if err != nil {
		return nil, imageStats{}, false
	}
	n := func(i int) int { return int(binary.LittleEndian.Uint64(data[8*i:])) }
	return img, imageStats{codeSize: n(0), numExternal: n(1), fences: n(2), funcs: n(3), blocks: n(4),
		fencesGone: data[imageStatsLen-1] != 0}, true
}
