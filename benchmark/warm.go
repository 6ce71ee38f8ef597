package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/pool"
	"repro/internal/store"
)

// warmBench replays recompiles from a disk store filled in setup (the
// -store DIR path): the disk tier and artifact decoding do nearly all the
// work; lifting, optimization and the VM do none.
type warmBench struct {
	c      *config
	progs  []program
	keys   []key
	dir    string
	disk   *store.Disk
	stored []*image.Image // per key: the image setup recompiled and stored
	hashes [][32]byte
}

func newWarm(c *config) bench { return &warmBench{c: c} }

func (b *warmBench) setup() error {
	b.close()
	progs, err := compileCorpus(b.c, nil)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(b.c.workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.c.workDir, "warm-store-")
	if err != nil {
		return err
	}
	b.dir = dir
	disk, err := store.OpenDisk(dir)
	if err != nil {
		return err
	}
	keys := keysOf(progs, "")
	stored := make([]*image.Image, len(keys))
	hashes := make([][32]byte, len(keys))
	err = pool.Run(runtime.NumCPU(), len(keys), func(_, i int) error {
		pr := progs[keys[i].prog]
		o := coreOptions(keys[i].target)
		o.Store = disk
		p, err := core.NewProject(pr.img, o)
		if err != nil {
			return err
		}
		if _, err := p.Trace([]core.Input{pr.w.Input()}); err != nil {
			return fmt.Errorf("%s: trace: %w", pr, err)
		}
		img, err := p.Recompile()
		if err != nil {
			return fmt.Errorf("%s/%s: %w", pr, keys[i].target, err)
		}
		stored[i], hashes[i] = img, imageHash(img)
		return nil
	})
	if err != nil {
		return err
	}
	b.progs, b.keys, b.disk, b.stored, b.hashes = progs, keys, disk, stored, hashes
	return nil
}

func (b *warmBench) phase(ph *phase, passes int) error {
	ts := &timedStore{back: b.disk}
	ph.st = ts
	c0 := b.disk.Stats()["disk"]
	for pass := 0; pass < passes; pass++ {
		ph.round([][]int{shuffle(b.c.seed, pass, len(b.keys))}, func(j *job, ki int) error {
			return b.job(j, ts, ki)
		})
	}
	if ph.traced {
		c1 := b.disk.Stats()["disk"]
		ts.report(ph, float64(ph.jobs()))
		ph.values["store.corrupt"] = float64(c1.Corrupt - c0.Corrupt)
		ph.values["store.errors"] = float64(c1.Errors - c0.Errors)
	}
	return nil
}

func (b *warmBench) job(j *job, ts *timedStore, ki int) error {
	k := b.keys[ki]
	pr := b.progs[k.prog]
	o := coreOptions(k.target)
	o.Store = ts
	p, err := j.newProject(pr.img, o)
	if err != nil {
		return fmt.Errorf("%s: %w", pr, err)
	}
	if err := j.trace(p, pr.w); err != nil {
		return fmt.Errorf("%s: trace: %w", pr, err)
	}
	img, err := j.recompile(p)
	j.done()
	if err != nil {
		return fmt.Errorf("%s/%s: %w", pr, k.target, err)
	}
	if imageHash(img) != b.hashes[ki] {
		return fmt.Errorf("%s/%s: replayed image differs from the stored one", pr, k.target)
	}
	return nil
}

// check runs every stored image: each replay was byte-identical to one.
func (b *warmBench) check() *verdicts {
	v := &verdicts{}
	checkImages(b.progs, b.keys, b.stored, v)
	return v
}

func (b *warmBench) close() {
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
}

// timedStore is the benchmark's store decorator: it forwards every call to
// the disk tier and times and counts it.
type timedStore struct {
	back store.Store

	mu               sync.Mutex
	getNs, putNs     time.Duration
	gets, puts, hits int64
	readBytes        int64
}

func (s *timedStore) Get(ns string, k store.Key) ([]byte, string, bool) {
	t0 := time.Now()
	data, tier, ok := s.back.Get(ns, k)
	d := time.Since(t0)
	s.mu.Lock()
	s.getNs += d
	s.gets++
	if ok {
		s.hits++
		s.readBytes += int64(len(data))
	}
	s.mu.Unlock()
	return data, tier, ok
}

func (s *timedStore) Put(ns string, k store.Key, data []byte) {
	t0 := time.Now()
	s.back.Put(ns, k, data)
	d := time.Since(t0)
	s.mu.Lock()
	s.putNs += d
	s.puts++
	s.mu.Unlock()
}

func (s *timedStore) Stats() map[string]store.Counters { return s.back.Stats() }

// nanos is the time spent in store calls so far.
func (s *timedStore) nanos() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getNs + s.putNs
}

// report sets the store's per-layer metrics for a traced phase of jobs jobs.
func (s *timedStore) report(ph *phase, jobs float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wall := float64(ph.wallSum)
	ph.values["store.get_frac"] = float64(s.getNs) / wall
	ph.values["store.put_frac"] = float64(s.putNs) / wall
	ph.values["store.gets_per_job"] = float64(s.gets) / jobs
	ph.values["store.puts_per_job"] = float64(s.puts) / jobs
	ph.values["store.read_kb_per_job"] = float64(s.readBytes) / 1024 / jobs
	if s.gets > 0 {
		ph.values["store.hit_ratio"] = float64(s.hits) / float64(s.gets)
	}
}
