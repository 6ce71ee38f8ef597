package bench

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/workloads"
)

// guestSpeedCells are the end-to-end hybrid benchmark's heaviest mx64w
// cells: the four gapbs kernels it runs at O0 and the two programs it runs
// at O2 whose recompiled mx64w runs take the most guest time.
var guestSpeedCells = []struct {
	name  string
	level int
}{
	{"tc_64", 0}, {"cc_sv_64", 0}, {"pr_spmv_64", 0}, {"bfs_64", 0},
	{"sssp_64", 2}, {"astar_like", 2},
}

// guestSpeedKinds names the images of one cell, in run order.
var guestSpeedKinds = []string{"orig", "mx64", "mx64w"}

// guestSpeedImages compiles a cell and recompiles it for both targets the
// way a hybrid job does (trace, prune callbacks, recompile), keyed by kind.
func guestSpeedImages(tb testing.TB, w *workloads.Workload, level int) map[string]*image.Image {
	tb.Helper()
	img, err := w.Compile(level)
	if err != nil {
		tb.Fatal(err)
	}
	imgs := map[string]*image.Image{"orig": img}
	for _, target := range guestSpeedKinds[1:] {
		o := core.DefaultOptions()
		o.Target = target
		o.Workers = runtime.NumCPU()
		o.NoFuncCache = true
		p, err := core.NewProject(img, o)
		if err != nil {
			tb.Fatal(err)
		}
		in := []core.Input{w.Input()}
		if _, err := p.Trace(in); err != nil {
			tb.Fatalf("%s/%s: trace: %v", w.Name, target, err)
		}
		if err := p.PruneCallbacks(in); err != nil {
			tb.Fatalf("%s/%s: prune: %v", w.Name, target, err)
		}
		if imgs[target], err = p.Recompile(); err != nil {
			tb.Fatalf("%s/%s: recompile: %v", w.Name, target, err)
		}
	}
	return imgs
}

// BenchmarkGuestSpeed measures the VM's guest speed per target on the fast
// loop: each iteration runs every cell's original and its mx64 and mx64w
// recompiles once, checked, and the benchmark reports guest instructions
// per second for each kind and the mx64w/mx64 ratio. Compiling and
// recompiling happen outside the timer; each run's time covers machine
// creation and the run, as the end-to-end benchmark's vm.run layer does.
func BenchmarkGuestSpeed(b *testing.B) {
	type cell struct {
		w    *workloads.Workload
		imgs map[string]*image.Image
	}
	var cells []cell
	for _, c := range guestSpeedCells {
		w := workloads.ByName(c.name)
		if w == nil {
			b.Fatalf("no workload %q", c.name)
		}
		cells = append(cells, cell{w, guestSpeedImages(b, w, c.level)})
	}
	insts := map[string]uint64{}
	elapsed := map[string]time.Duration{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			for _, kind := range guestSpeedKinds {
				start := time.Now()
				res, err := c.w.Run(c.imgs[kind], Fuel)
				elapsed[kind] += time.Since(start)
				if err == nil {
					err = c.w.Check(res)
				}
				if err != nil {
					b.Fatalf("%s %s: %v", c.w.Name, kind, err)
				}
				insts[kind] += res.Insts
			}
		}
	}
	speed := map[string]float64{}
	for _, kind := range guestSpeedKinds {
		speed[kind] = float64(insts[kind]) / elapsed[kind].Seconds()
		b.ReportMetric(speed[kind], kind+"-insts/s")
	}
	b.ReportMetric(speed["mx64w"]/speed["mx64"], "mx64w/mx64")
}
