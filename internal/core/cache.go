package core

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/cfg"
	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/lifter"
	"repro/internal/store"
)

// Per-function artifacts: the content-addressed function cache behind
// incremental recompilation, backed by the project's tiered artifact store.
// An entry holds one function's fully lifted-and-optimized body in its
// serialized form (ir.EncodeFunc — cross-references by name, the store's
// persistent version of the old detached-stub clones), keyed by a
// fingerprint of everything the body depends on: the function's machine-code
// bytes, its per-function CFG shape (block extents, terminators, target
// sets, fallthroughs), whether each outgoing target resolves to a known
// function entry, and the lifter/optimizer options in effect. A recompile
// after an additive discovery therefore re-lifts and re-optimizes only the
// functions whose fingerprint changed — integrating a new indirect target
// perturbs exactly the owning function's target set — and replays every
// other body by decoding it into the fresh module skeleton.
//
// Invalidation is implicit: a changed function hashes to a new key, so its
// stale entry simply stops being referenced. The memory tier keeps every
// body for the life of its project (an additive session of 16 recompiles
// holds a few hundred KB); a disk tier keeps everything, subject to its
// size limit, and serves across processes.

// replayFunc decodes the stored body for key into the skeleton function for
// entry, resolving name references against lf's module. It reports the
// body's lift-time site count, the tier that served it, and whether the
// replay succeeded; any decode failure (corrupt payload, renamed or dropped
// symbol in the fresh module) is a miss and leaves the skeleton function
// empty for a fresh lift.
func (p *Project) replayFunc(key store.Key, lf *lifter.Lifted, entry uint64) (int, string, bool) {
	data, tier, ok := p.storeGet(nsFunc, key)
	if !ok || len(data) < 8 {
		return 0, "", false
	}
	sites := int(binary.LittleEndian.Uint64(data))
	dst := lf.FuncByAddr[entry]
	if err := ir.DecodeFuncInto(dst, data[8:], lf.Mod.Global, lf.Mod.Func); err != nil {
		return 0, "", false
	}
	return sites, tier, true
}

// putFunc stores f's optimized body under key (write-through to every
// tier). sites is the body's lift-time site count, needed by FinalizeSites
// on replay. Encode failures just skip the entry — the pipeline keeps the
// freshly built body either way.
func (p *Project) putFunc(key store.Key, f *ir.Func, sites int) {
	enc, err := ir.EncodeFunc(f)
	if err != nil {
		return
	}
	env := make([]byte, 8, 8+len(enc))
	binary.LittleEndian.PutUint64(env, uint64(sites))
	p.storePut(nsFunc, key, append(env, enc...))
}

// cacheKeyOpts packs every pipeline option that changes what a lifted and
// optimized body looks like. Worker count is deliberately absent: output is
// independent of -jpipe by the determinism contract (DESIGN.md §3).
type cacheKeyOpts struct {
	naiveAtomics bool
	optimize     bool
	verifyIR     bool
	removeFences bool
	// target is the lowering target's stable ID (mx.Target.ID). Bodies are
	// lifted IR and thus target-independent today, but the key is
	// deliberately conservative: a shared store must never serve an
	// artifact produced under one target configuration to another.
	target byte
}

// keyOpts returns the key options of a build under st for the lowering
// target with the given ID. Image and function keys both take theirs from
// here, so the two can never disagree on an option.
func (p *Project) keyOpts(st buildState, target byte) cacheKeyOpts {
	return cacheKeyOpts{
		naiveAtomics: p.Opts.NaiveAtomics,
		optimize:     st.optimize,
		verifyIR:     p.Opts.VerifyIR,
		removeFences: st.removeFences,
		target:       target,
	}
}

func (k cacheKeyOpts) bits() byte {
	// Bit 0 stands for fence insertion, which every build does; it stays
	// set so that keys in existing stores stay valid.
	b := byte(1)
	if k.naiveAtomics {
		b |= 2
	}
	if k.optimize {
		b |= 4
	}
	if k.verifyIR {
		b |= 8
	}
	if k.removeFences {
		b |= 16
	}
	return b
}

// fingerprintFunc computes the content-addressed cache key for cf.
//
// Everything the lifter reads when translating cf is folded in: the raw
// machine bytes of every block (hence any byte-level patch re-lifts), the
// block list itself (addresses, sizes, terminator kinds, fallthroughs,
// import indexes), the indirect/direct target sets in their dispatch order,
// and — because translating a transfer depends on whether its target is a
// known function entry (call vs. control-flow-miss) — one resolution bit per
// target against isFunc, the current set of function entries. Per-function
// CFG membership (which blocks belong to cf, used for intra-function
// dispatch) is covered by hashing cf.Blocks in order.
//
// A store key additionally folds in the whole-image fingerprint (funcKey,
// stages.go): bodies read image data these per-block bytes don't cover.
func fingerprintFunc(img *image.Image, g *cfg.Graph, cf *cfg.Func, isFunc map[uint64]bool, opts cacheKeyOpts) [32]byte {
	h := sha256.New()
	var w [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(w[:], x)
		h.Write(w[:])
	}
	h.Write([]byte{opts.bits(), opts.target})
	u64(cf.Entry)
	u64(uint64(len(cf.Blocks)))
	for _, ba := range cf.Blocks {
		b := g.Blocks[ba]
		if b == nil {
			u64(ba)
			u64(^uint64(0))
			continue
		}
		u64(b.Addr)
		u64(b.Size)
		h.Write([]byte(b.Term))
		u64(b.Fall)
		u64(uint64(b.Ext))
		if sec := img.FindSection(b.Addr); sec != nil && sec.Data != nil {
			off := b.Addr - sec.Addr
			if end := off + b.Size; end <= uint64(len(sec.Data)) {
				h.Write(sec.Data[off:end])
			}
		}
		u64(uint64(len(b.Targets)))
		for _, t := range b.Targets {
			u64(t)
			if isFunc[t] {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	var key [32]byte
	h.Sum(key[:0])
	return key
}
