package main

import (
	"fmt"
	"runtime"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/pool"
)

// staticBench recompiles every (image, target) from a CFG checkpoint traced
// in setup, with the artifact store off: lifter, opt and lower do nearly all
// the work and the VM none.
type staticBench struct {
	c     *config
	progs []program
	ckpt  [][]byte // per program: the traced CFG, marshaled
	keys  []key

	// first is each key's first recompiled image (run and checked in check);
	// later passes must match its code size and fence count. hashes collects
	// every distinct image a key produced, for the determinism probe.
	first  []*image.Image
	size   []int
	fences []int
	hashes []map[[32]byte]bool
}

func newStatic(c *config) bench { return &staticBench{c: c} }

func (b *staticBench) setup() error {
	progs, err := compileCorpus(b.c, nil)
	if err != nil {
		return err
	}
	ckpt := make([][]byte, len(progs))
	err = pool.Run(runtime.NumCPU(), len(progs), func(_, i int) error {
		o := coreOptions("")
		o.NoFuncCache = true
		p, err := core.NewProject(progs[i].img, o)
		if err != nil {
			return err
		}
		if _, err := p.Trace([]core.Input{progs[i].w.Input()}); err != nil {
			return fmt.Errorf("%s: trace: %w", progs[i], err)
		}
		ckpt[i], err = p.Graph.Marshal()
		return err
	})
	if err != nil {
		return err
	}
	b.progs, b.ckpt = progs, ckpt
	b.keys = keysOf(progs, "")
	b.first = make([]*image.Image, len(b.keys))
	b.size = make([]int, len(b.keys))
	b.fences = make([]int, len(b.keys))
	b.hashes = make([]map[[32]byte]bool, len(b.keys))
	return nil
}

func (b *staticBench) phase(ph *phase, passes int) error {
	for pass := 0; pass < passes; pass++ {
		ph.round([][]int{shuffle(b.c.seed, pass, len(b.keys))}, b.job)
	}
	ph.values["opt.nondeterministic_images"] = float64(b.nondeterministic())
	return nil
}

func (b *staticBench) job(j *job, ki int) error {
	k := b.keys[ki]
	pr := b.progs[k.prog]
	var g *cfg.Graph
	if _, err := j.call("cfg.Unmarshal", lCFG, func() (err error) {
		g, err = cfg.Unmarshal(b.ckpt[k.prog])
		return err
	}); err != nil {
		return err
	}
	o := coreOptions(k.target)
	o.NoFuncCache = true
	o.Obs = j.tr
	var p *core.Project
	j.call("core.NewProjectWithGraph", lCore, func() error {
		p = core.NewProjectWithGraph(pr.img, g, o)
		return nil
	})
	img, err := j.recompile(p)
	j.done()
	if err != nil {
		return fmt.Errorf("%s/%s: %w", pr, k.target, err)
	}
	if b.hashes[ki] == nil {
		b.hashes[ki] = map[[32]byte]bool{}
	}
	b.hashes[ki][imageHash(img)] = true
	if b.first[ki] == nil {
		b.first[ki], b.size[ki], b.fences[ki] = img, p.Stats.CodeSize, p.Stats.Fences
		return nil
	}
	if p.Stats.CodeSize != b.size[ki] || p.Stats.Fences != b.fences[ki] {
		return fmt.Errorf("%s/%s: code size %d, fences %d; first pass gave %d, %d",
			pr, k.target, p.Stats.CodeSize, p.Stats.Fences, b.size[ki], b.fences[ki])
	}
	return nil
}

// nondeterministic counts the keys whose recompiled bytes took more than one
// value across passes.
func (b *staticBench) nondeterministic() int {
	n := 0
	for _, h := range b.hashes {
		if len(h) > 1 {
			n++
		}
	}
	return n
}

func (b *staticBench) check() *verdicts {
	v := &verdicts{}
	ks, imgs := make([]key, 0, len(b.keys)), make([]*image.Image, 0, len(b.keys))
	for i, k := range b.keys {
		if b.first[i] != nil {
			ks, imgs = append(ks, k), append(imgs, b.first[i])
		}
	}
	checkImages(b.progs, ks, imgs, v)
	return v
}

func (b *staticBench) close() {}
