// Package-level benchmarks: one testing.B benchmark per table and figure of
// the paper's evaluation. `go test -bench=. -benchmem` runs quick versions;
// `go run ./cmd/polybench -all` prints the full formatted tables.
package main_test

import (
	"testing"

	"repro/internal/baselines"
	"repro/internal/bench"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// BenchmarkTable1SupportMatrix runs the full support matrix (Polynima +
// four baselines over every benchmark family).
func BenchmarkTable1SupportMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.NewHarness(0).Table1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Polynima != "ok" {
				b.Fatalf("Polynima must support %s: %s", r.Name, r.Polynima)
			}
		}
	}
}

// BenchmarkTable2Phoenix regenerates the Phoenix normalized-runtime table.
func BenchmarkTable2Phoenix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, txt, err := bench.NewHarness(0).Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatalf("expected 7 Phoenix rows, got %d", len(rows))
		}
		b.Log("\n" + txt)
	}
}

// BenchmarkTable3Gapbs regenerates the graph-kernel table (both widths).
func BenchmarkTable3Gapbs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		txt, err := bench.NewHarness(0).Table3()
		if err != nil {
			b.Fatal(err)
		}
		b.Log("\n" + txt)
	}
}

// BenchmarkTable4LiftTimes regenerates the lifting-time comparison.
func BenchmarkTable4LiftTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, txt, err := bench.NewHarness(0).Table4()
		if err != nil {
			b.Fatal(err)
		}
		// The emulator-coupled baseline must be far slower in aggregate
		// (tiny inputs can tie on individual rows).
		var pSum, bSum float64
		for _, r := range rows {
			pSum += float64(r.Polynima)
			bSum += float64(r.BinRec)
		}
		if bSum <= 2*pSum {
			b.Fatalf("BinRec-like total (%.0fms) must far exceed Polynima total (%.0fms)",
				bSum/1e6, pSum/1e6)
		}
		b.Log("\n" + txt)
	}
}

// BenchmarkTable5CKit regenerates the spinlock-latency table.
func BenchmarkTable5CKit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, txt, err := bench.NewHarness(0).Table5()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 11 {
			b.Fatalf("expected 11 locks, got %d", len(rows))
		}
		b.Log("\n" + txt)
	}
}

// BenchmarkFigure4Additive regenerates the additive-vs-incremental series.
func BenchmarkFigure4Additive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, txt, err := bench.NewHarness(0).Figure4()
		if err != nil {
			b.Fatal(err)
		}
		// Once the CFG has converged (an input that triggered no recompiles
		// after earlier inputs grew the graph), an additive run is a pure
		// native execution and must beat an emulator-coupled trace on at
		// least one such point.
		win := false
		for i, pt := range pts {
			if i > 0 && pt.Recompiles == 0 && pt.Additive < pt.Incremental {
				win = true
			}
		}
		if !win {
			b.Fatalf("no converged additive run beat incremental: %+v", pts)
		}
		b.Log("\n" + txt)
	}
}

// --- microbenchmarks of the pipeline stages ---------------------------------

func BenchmarkPipelineStages(b *testing.B) {
	w := workloads.ByName("mcf_like")
	img, err := w.Compile(2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("disasm+lift+opt+lower", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := core.NewProject(img, core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Recompile(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("icft-trace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := core.NewProject(img, core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Trace(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binrec-like-lift", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baselines.BinRecLike(img, nil, 1, bench.Fuel, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAtomicTranslation compares the Listing 1 (naive, global-lock) and
// Listing 2 (optimized, cmpxchg) atomic translations under contention.
func BenchmarkAtomicTranslation(b *testing.B) {
	src := `
extern thread_create;
extern thread_join;
var c = 0;
func w(a) {
	var i;
	for (i = 0; i < 2000; i = i + 1) { atomic_add(&c, 1); }
	return 0;
}
func main() {
	var t1 = thread_create(w, 0);
	var t2 = thread_create(w, 0);
	thread_join(t1);
	thread_join(t2);
	return 0;
}`
	img, _, err := cc.Compile(src, cc.Config{Name: "at", Opt: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, naive := range []bool{false, true} {
		name := "listing2-optimized"
		if naive {
			name = "listing1-naive"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.NaiveAtomics = naive
			p, err := core.NewProject(img, opts)
			if err != nil {
				b.Fatal(err)
			}
			rec, err := p.Recompile()
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			for i := 0; i < b.N; i++ {
				m, err := vm.New(rec, 3)
				if err != nil {
					b.Fatal(err)
				}
				res := m.Run(bench.Fuel)
				if res.Fault != nil {
					b.Fatal(res.Fault)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "guest-cycles")
		})
	}
}
