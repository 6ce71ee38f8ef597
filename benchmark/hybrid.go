package main

import "fmt"

// hybridBench runs one Table-2 cell per job: compile, a checked original
// run, disassembly, ICFT tracing, callback pruning, fence optimization on
// the Phoenix programs, recompilation and a checked recompiled run. This is
// the paper's own pipeline; the VM bounds it.
type hybridBench struct {
	c     *config
	progs []program
	keys  []key
	// done marks the keys whose exact metrics v already holds.
	done []bool
	v    verdicts
}

func newHybrid(c *config) bench { return &hybridBench{c: c} }

// setup compiles the corpus once so a broken program fails before timing;
// each job compiles its own program again, as the pipeline would. Each
// program appears at one level, alternating O0 and O2 down the corpus, which
// keeps both levels of Table 2 while a run can afford two passes.
func (b *hybridBench) setup() error {
	var progs []program
	for i, w := range b.c.programs() {
		lvl := levels[i%len(levels)]
		img, err := w.Compile(lvl)
		if err != nil {
			return err
		}
		progs = append(progs, program{w: w, level: lvl, img: img})
	}
	only := ""
	if b.c.trace {
		only = "mx64" // the traced run takes the mx64 half
	}
	b.progs, b.keys = progs, keysOf(progs, only)
	b.done = make([]bool, len(b.keys))
	b.v = verdicts{}
	return nil
}

func (b *hybridBench) phase(ph *phase, passes int) error {
	for pass := 0; pass < passes; pass++ {
		ph.round([][]int{shuffle(b.c.seed, pass, len(b.keys))}, b.job)
	}
	return nil
}

func (b *hybridBench) job(j *job, ki int) error {
	k := b.keys[ki]
	pr := b.progs[k.prog]
	name := fmt.Sprintf("%s/%s", pr, k.target)
	w := pr.w
	img, err := j.compile(w, pr.level)
	if err != nil {
		return err
	}
	orig, err := j.run(w, img, "orig")
	if err != nil {
		return fmt.Errorf("%s original: %w", name, err)
	}
	o := coreOptions(k.target)
	o.NoFuncCache = true
	p, err := j.newProject(img, o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := j.trace(p, w); err != nil {
		return fmt.Errorf("%s: trace: %w", name, err)
	}
	if err := j.prune(p, w); err != nil {
		return fmt.Errorf("%s: prune: %w", name, err)
	}
	if w.Family == "phoenix" {
		rep, err := j.fenceOptimize(p, w)
		if err != nil {
			return fmt.Errorf("%s: fence optimization: %w", name, err)
		}
		if !rep.FencesRemovable {
			// As in Table 2: quantify the fence cost despite the
			// conservative verdict.
			p.ForceFenceRemoval()
		}
	}
	rec, err := j.recompile(p)
	if err != nil {
		return fmt.Errorf("%s: recompile: %w", name, err)
	}
	res, err := j.run(w, rec, k.target)
	j.done()
	if err != nil {
		return fmt.Errorf("%s recompiled: %w", name, err)
	}
	if !b.done[ki] && orig.Cycles > 0 {
		b.done[ki] = true
		b.v.exact(rec, res.Cycles, orig.Cycles)
	}
	return nil
}

// check has nothing left to run: every job checked both of its runs.
func (b *hybridBench) check() *verdicts { return &b.v }

func (b *hybridBench) close() {}
