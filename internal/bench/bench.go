// Package bench regenerates every table and figure of the paper's
// evaluation (§4) from the reproduction's own substrates:
//
//	Table 1  — supported-benchmark matrix, Polynima vs the baselines
//	Table 2  — Phoenix normalized runtimes (O0/O3, each ± fence removal)
//	Table 3  — gapbs normalized runtimes (32/64-bit × O0/O3)
//	Table 4  — lifting times and ICFT counts for the SPEC-like binaries
//	Table 5  — CKit spinlock lock/unlock latencies, native vs recovered
//	Figure 4 — additive vs incremental lifting across input complexity
//
// Performance rows are simulated-cycle ratios (recompiled / original), the
// same normalized-runtime presentation the paper uses; lifting times are
// wall-clock of the actual pipelines. Absolute values are simulator-scale —
// the reproduction claims shapes (who wins, by what factor), not absolute
// numbers.
//
// The generators run their independent pipeline cells over a Harness worker
// pool (see pool.go). Cell results are collected by index, so the formatted
// tables are byte-identical at any worker count.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Fuel bounds every benchmark execution.
const Fuel = 4_000_000_000

// coreOptions returns the project options every harness cell uses: the
// defaults plus the harness's configured pipeline width.
func (h *Harness) coreOptions() core.Options {
	o := core.DefaultOptions()
	o.Workers = h.pipeWorkers
	o.NoFuncCache = h.noFuncCache
	o.Obs = h.tracer
	o.Store = h.store
	o.Target = h.target
	return o
}

// runOnce executes img with the workload's input and returns the result.
func runOnce(w *workloads.Workload, img *image.Image) (vm.Result, error) {
	return w.Run(img, Fuel)
}

// cycles runs img and returns total cycles (error on fault/check failure).
func cycles(w *workloads.Workload, img *image.Image) (uint64, error) {
	res, err := runOnce(w, img)
	if err != nil {
		return 0, err
	}
	if err := w.Check(res); err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// recompileFor builds a Polynima project for w at the given cc opt level,
// traces the primary input, and optionally applies fence removal.
func (h *Harness) recompileFor(w *workloads.Workload, ccOpt int, fenceOpt bool) (*core.Project, *image.Image, bool, error) {
	return h.recompileOpts(w, ccOpt, fenceOpt, false)
}

func (h *Harness) recompileOpts(w *workloads.Workload, ccOpt int, fenceOpt, prune bool) (*core.Project, *image.Image, bool, error) {
	img, err := w.Compile(ccOpt)
	if err != nil {
		return nil, nil, false, err
	}
	p, err := core.NewProject(img, h.coreOptions())
	if err != nil {
		return nil, nil, false, err
	}
	// Record whatever stages ran, whether or not the pipeline completes.
	defer h.stats.absorb(p)
	if _, err := p.Trace([]core.Input{w.Input()}); err != nil {
		return nil, nil, false, err
	}
	if prune {
		if err := p.PruneCallbacks([]core.Input{w.Input()}); err != nil {
			return nil, nil, false, err
		}
	}
	verdictClean := false
	if fenceOpt {
		rep, err := p.FenceOptimize([]core.Input{w.Input()})
		if err != nil {
			return nil, nil, false, err
		}
		verdictClean = rep.FencesRemovable
		if !verdictClean {
			// The paper still reports the FO column for pca/histogram,
			// annotated (X): apply removal despite the conservative verdict
			// to quantify the cost.
			p.ForceFenceRemoval()
		}
	}
	rec, err := p.Recompile()
	if err != nil {
		return nil, nil, false, err
	}
	return p, rec, verdictClean, nil
}

// ratio formats recompiled/original cycles. A zero baseline has no
// meaningful ratio: it yields the explicit "n/a" marker rather than +Inf.
func ratio(rec, orig uint64) string {
	if orig == 0 {
		return "n/a"
	}
	return strconv.FormatFloat(float64(rec)/float64(orig), 'f', 2, 64)
}

// geomean computes the geometric mean of the positive values in rs. A zero
// or negative ratio has no log and would silently poison the mean to
// NaN/zero, so such entries are skipped; the second result reports how many
// were, for the caller to surface. All-skipped (or empty) input yields 0.
func geomean(rs []float64) (float64, int) {
	s, n := 0.0, 0
	for _, r := range rs {
		if !(r > 0) { // catches zero, negatives, and NaN
			continue
		}
		s += math.Log(r)
		n++
	}
	if n == 0 {
		return 0, len(rs)
	}
	return math.Exp(s / float64(n)), len(rs) - n
}

// --- Table 1 ---------------------------------------------------------------

// SupportRow is one benchmark's support verdict per recompiler.
type SupportRow struct {
	Name     string
	Family   string
	Polynima string // "ok" or failure reason
	Lasagne  string
	McSema   string
	BinRec   string
	RevNg    string
}

// Table1 runs every benchmark family through Polynima and the baselines.
func (h *Harness) Table1() ([]SupportRow, string, error) {
	defer h.trackWall(time.Now())
	var set []*workloads.Workload
	set = append(set, workloads.Apps()...)
	set = append(set, workloads.Phoenix()...)
	set = append(set, workloads.Gapbs(64)...)
	set = append(set, workloads.CKit()...)
	rows, err := h.supportRows(set)
	if err != nil {
		return nil, "", err
	}
	return rows, formatTable1(rows), nil
}

// supportRows computes one support row per workload; each row is one
// pipeline cell (its Polynima recompile plus all four baseline recompiles).
func (h *Harness) supportRows(set []*workloads.Workload) ([]SupportRow, error) {
	rows := make([]SupportRow, len(set))
	err := h.forEach(len(set), func(i int) error {
		w := set[i]
		row := &rows[i]
		row.Name, row.Family = w.Name, w.Family
		img, err := w.Compile(2)
		if err != nil {
			return err
		}

		// Polynima: hybrid recovery + recompile + correctness check.
		row.Polynima = verdict(func() error {
			_, rec, _, err := h.recompileFor(w, 2, false)
			if err != nil {
				return err
			}
			res, err := runOnce(w, rec)
			if err != nil {
				return err
			}
			return w.Check(res)
		})

		// Lasagne/mctoll: static support envelope, then correctness.
		row.Lasagne = verdict(func() error {
			rec, _, err := baselines.MctollLike(img)
			if err != nil {
				return err
			}
			res, err := runOnce(w, rec)
			if err != nil {
				return err
			}
			return w.Check(res)
		})

		// McSema-like / Rev.Ng-like: static, shared state, trap on miss.
		staticShared := verdict(func() error {
			rec, _, err := baselines.McSemaLike(img)
			if err != nil {
				return err
			}
			res, err := runOnce(w, rec)
			if err != nil {
				return err
			}
			return w.Check(res)
		})
		row.McSema = staticShared
		row.RevNg = staticShared

		// BinRec-like: dynamic trace + shared-state recompile.
		row.BinRec = verdict(func() error {
			in := w.Input()
			br, err := baselines.BinRecLike(img, in.Data, in.Seed, Fuel, in.Exts)
			if err != nil {
				return err
			}
			res, err := runOnce(w, br.Img)
			if err != nil {
				return err
			}
			return w.Check(res)
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func verdict(f func() error) string {
	if err := f(); err != nil {
		msg := err.Error()
		if len(msg) > 60 {
			msg = msg[:60]
		}
		return "FAIL: " + msg
	}
	return "ok"
}

func formatTable1(rows []SupportRow) string {
	var sb strings.Builder
	sb.WriteString("Table 1: Supported benchmarks (ok / FAIL)\n")
	fmt.Fprintf(&sb, "%-22s %-8s %-9s %-9s %-9s %-9s %-9s\n",
		"Benchmark", "Family", "Polynima", "Lasagne", "McSema", "BinRec", "Rev.Ng")
	mark := func(v string) string {
		if v == "ok" {
			return "ok"
		}
		return "FAIL"
	}
	counts := map[string][2]int{} // family -> [polynima-ok, total]
	famOK := map[string]map[string]int{}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-22s %-8s %-9s %-9s %-9s %-9s %-9s\n",
			r.Name, r.Family, mark(r.Polynima), mark(r.Lasagne), mark(r.McSema),
			mark(r.BinRec), mark(r.RevNg))
		c := counts[r.Family]
		c[1]++
		if r.Polynima == "ok" {
			c[0]++
		}
		counts[r.Family] = c
		if famOK[r.Family] == nil {
			famOK[r.Family] = map[string]int{}
		}
		for tool, v := range map[string]string{"lasagne": r.Lasagne, "mcsema": r.McSema,
			"binrec": r.BinRec, "revng": r.RevNg} {
			if v == "ok" {
				famOK[r.Family][tool]++
			}
		}
	}
	sb.WriteString("\nPer-family support (Polynima / Lasagne / McSema / BinRec / Rev.Ng of total):\n")
	var fams []string
	for f := range counts {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	for _, f := range fams {
		c := counts[f]
		fmt.Fprintf(&sb, "  %-8s %d/%d  %d/%d  %d/%d  %d/%d  %d/%d\n", f,
			c[0], c[1], famOK[f]["lasagne"], c[1], famOK[f]["mcsema"], c[1],
			famOK[f]["binrec"], c[1], famOK[f]["revng"], c[1])
	}
	return sb.String()
}

// --- Table 2 / Table 3 ------------------------------------------------------

// PerfRow is one workload's normalized-runtime set.
type PerfRow struct {
	Name               string
	O0, O0FO, O3, O3FO float64
	// Per-column FO notes: "(X)" when that verdict was conservative and
	// fence removal was forced to quantify the cost (the paper's pca and
	// histogram annotations).
	Note0, Note3 string
}

// Table2 measures the Phoenix suite.
func (h *Harness) Table2() ([]PerfRow, string, error) {
	defer h.trackWall(time.Now())
	return h.perfTable(workloads.Phoenix(), true)
}

// perfCfg is one cell configuration of a performance table.
type perfCfg struct {
	ccOpt int
	fo    bool
}

// perfTable measures the normalized runtime of every (workload × config)
// cell; each cell compiles its own original and recompiled images, so all
// cells are independent.
func (h *Harness) perfTable(set []*workloads.Workload, withFO bool) ([]PerfRow, string, error) {
	cfgs := []perfCfg{{0, false}, {2, false}}
	if withFO {
		cfgs = []perfCfg{{0, false}, {0, true}, {2, false}, {2, true}}
	}
	rows := make([]PerfRow, len(set))
	for i, w := range set {
		rows[i].Name = w.Name
	}
	err := h.forEach(len(set)*len(cfgs), func(ci int) error {
		w := set[ci/len(cfgs)]
		cfg := cfgs[ci%len(cfgs)]
		row := &rows[ci/len(cfgs)]
		var dst *float64
		var note *string
		switch {
		case cfg.ccOpt == 0 && !cfg.fo:
			dst = &row.O0
		case cfg.ccOpt == 0:
			dst, note = &row.O0FO, &row.Note0
		case !cfg.fo:
			dst = &row.O3
		default:
			dst, note = &row.O3FO, &row.Note3
		}
		img, err := w.Compile(cfg.ccOpt)
		if err != nil {
			return err
		}
		orig, err := cycles(w, img)
		if err != nil {
			return fmt.Errorf("%s original O%d: %w", w.Name, cfg.ccOpt, err)
		}
		if orig == 0 {
			return fmt.Errorf("%s original O%d: zero baseline cycles", w.Name, cfg.ccOpt)
		}
		// Full optional pipeline: tracing, callback pruning (and the
		// inlining it unlocks), plus fence optimization for FO columns.
		_, rec, clean, err := h.recompileOpts(w, cfg.ccOpt, cfg.fo, true)
		if err != nil {
			return fmt.Errorf("%s recompile O%d fo=%v: %w", w.Name, cfg.ccOpt, cfg.fo, err)
		}
		recCycles, err := cycles(w, rec)
		if err != nil {
			return fmt.Errorf("%s recompiled O%d fo=%v: %w", w.Name, cfg.ccOpt, cfg.fo, err)
		}
		*dst = float64(recCycles) / float64(orig)
		if cfg.fo && !clean && note != nil {
			*note = "(X)"
		}
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	var sb strings.Builder
	if withFO {
		sb.WriteString("Benchmark            O0     O0+FO   O3     O3+FO\n")
	} else {
		sb.WriteString("Benchmark            O0     O3\n")
	}
	var g0, g0fo, g3, g3fo []float64
	for _, r := range rows {
		if withFO {
			fmt.Fprintf(&sb, "%-20s %-6.2f %-6.2f%-2s %-6.2f %-6.2f%s\n",
				r.Name, r.O0, r.O0FO, r.Note0, r.O3, r.O3FO, r.Note3)
			g0fo = append(g0fo, r.O0FO)
			g3fo = append(g3fo, r.O3FO)
		} else {
			fmt.Fprintf(&sb, "%-20s %-6.2f %-6.2f\n", r.Name, r.O0, r.O3)
		}
		g0 = append(g0, r.O0)
		g3 = append(g3, r.O3)
	}
	skipped := 0
	gm := func(rs []float64) float64 {
		g, sk := geomean(rs)
		skipped += sk
		return g
	}
	if withFO {
		fmt.Fprintf(&sb, "%-20s %-6.2f %-6.2f   %-6.2f %-6.2f\n", "Geomean",
			gm(g0), gm(g0fo), gm(g3), gm(g3fo))
	} else {
		fmt.Fprintf(&sb, "%-20s %-6.2f %-6.2f\n", "Geomean", gm(g0), gm(g3))
	}
	if skipped > 0 {
		fmt.Fprintf(&sb, "warning: geomean skipped %d non-positive ratio(s)\n", skipped)
	}
	return rows, sb.String(), nil
}

// Table3 measures the gapbs suite at both element widths.
func (h *Harness) Table3() (string, error) {
	defer h.trackWall(time.Now())
	var sb strings.Builder
	sb.WriteString("Table 3: gapbs normalized runtimes\n")
	for _, width := range []int{32, 64} {
		_, txt, err := h.perfTable(workloads.Gapbs(width), false)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "\n-- %d-bit --\n%s", width, txt)
	}
	return sb.String(), nil
}

// --- Table 4 ----------------------------------------------------------------

// LiftRow is one SPEC-like binary's lifting-time comparison.
type LiftRow struct {
	Name     string
	Polynima time.Duration
	BinRec   time.Duration
	McSema   time.Duration
	ICFTs    int
}

// Table4 compares hybrid, dynamic, and static lifting times. Each workload
// is one cell; with several workers the absolute wall times inflate under
// contention, but the orderings the table claims (hybrid ≪ emulator-coupled)
// are preserved because all three pipelines of a row time inside one cell.
func (h *Harness) Table4() ([]LiftRow, string, error) {
	defer h.trackWall(time.Now())
	set := workloads.Spec()
	rows := make([]LiftRow, len(set))
	err := h.forEach(len(set), func(i int) error {
		w := set[i]
		img, err := w.Compile(2)
		if err != nil {
			return err
		}
		row := &rows[i]
		row.Name = w.Name

		// Polynima: disassemble + ICFT trace + lift + optimize + lower.
		p, err := core.NewProject(img, h.coreOptions())
		if err != nil {
			return err
		}
		defer h.stats.absorb(p)
		if _, err := p.Trace([]core.Input{w.Input()}); err != nil {
			return err
		}
		if _, err := p.Recompile(); err != nil {
			return err
		}
		row.Polynima = p.Stats.Total()
		row.ICFTs = p.Stats.ICFTs

		// BinRec-like: emulator-coupled trace-and-translate.
		in := w.Input()
		br, err := baselines.BinRecLike(img, in.Data, in.Seed, Fuel, in.Exts)
		if err != nil {
			return err
		}
		row.BinRec = br.LiftTime

		// McSema-like: static-only pipeline.
		_, mt, err := baselines.McSemaLike(img)
		if err != nil {
			return err
		}
		row.McSema = mt
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	var sb strings.Builder
	sb.WriteString("Table 4: lifting times and ICFT counts\n")
	fmt.Fprintf(&sb, "%-16s %-12s %-12s %-12s %s\n", "Benchmark", "Polynima", "BinRec", "McSema", "ICFTs")
	var gp, gb, gm []float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %-12s %-12s %-12s %d\n", r.Name,
			r.Polynima.Round(time.Microsecond), r.BinRec.Round(time.Microsecond),
			r.McSema.Round(time.Microsecond), r.ICFTs)
		gp = append(gp, float64(r.Polynima))
		gb = append(gb, float64(r.BinRec))
		gm = append(gm, float64(r.McSema))
	}
	mp, sp := geomean(gp)
	mb, sb2 := geomean(gb)
	mm, sm := geomean(gm)
	fmt.Fprintf(&sb, "%-16s %-12s %-12s %-12s\n", "Geomean",
		time.Duration(mp).Round(time.Microsecond),
		time.Duration(mb).Round(time.Microsecond),
		time.Duration(mm).Round(time.Microsecond))
	if skipped := sp + sb2 + sm; skipped > 0 {
		fmt.Fprintf(&sb, "warning: geomean skipped %d non-positive duration(s)\n", skipped)
	}
	return rows, sb.String(), nil
}

// --- Table 5 ----------------------------------------------------------------

// CKitRow is one spinlock's latency pair (cycles per lock+unlock).
type CKitRow struct {
	Name              string
	Native, Recovered int64
}

// Table5 measures the CKit spinlock latencies.
func (h *Harness) Table5() ([]CKitRow, string, error) {
	defer h.trackWall(time.Now())
	rows, err := h.ckitRows(workloads.CKit())
	if err != nil {
		return nil, "", err
	}
	return rows, formatTable5(rows), nil
}

// ckitRows measures one latency pair per spinlock; each lock is one cell.
func (h *Harness) ckitRows(set []*workloads.Workload) ([]CKitRow, error) {
	rows := make([]CKitRow, len(set))
	err := h.forEach(len(set), func(i int) error {
		w := set[i]
		img, err := w.Compile(2)
		if err != nil {
			return err
		}
		nat, err := latency(w, img)
		if err != nil {
			return fmt.Errorf("%s native: %w", w.Name, err)
		}
		// The recovered binary uses the full optional pipeline: callback
		// pruning de-externalizes the lock functions so they inline into
		// the latency loop, as the inline CK primitives are in the source.
		_, rec, _, err := h.recompileOpts(w, 2, false, true)
		if err != nil {
			return err
		}
		rcv, err := latency(w, rec)
		if err != nil {
			return fmt.Errorf("%s recovered: %w", w.Name, err)
		}
		rows[i] = CKitRow{Name: w.Name, Native: nat, Recovered: rcv}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func formatTable5(rows []CKitRow) string {
	var sb strings.Builder
	sb.WriteString("Table 5: CKit spinlock latency (cycles per lock+unlock)\n")
	fmt.Fprintf(&sb, "%-16s %-8s %s\n", "Spinlock", "Native", "Recovered")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %-8d %d\n", r.Name, r.Native, r.Recovered)
	}
	return sb.String()
}

// latency extracts the printed cycles-per-pair from a CKit run.
func latency(w *workloads.Workload, img *image.Image) (int64, error) {
	res, err := runOnce(w, img)
	if err != nil {
		return 0, err
	}
	if err := w.Check(res); err != nil {
		return 0, err
	}
	line := strings.TrimSpace(res.Output)
	return strconv.ParseInt(line, 10, 64)
}

// --- Figure 4 ----------------------------------------------------------------

// Fig4Point is one input's lifting time under each strategy.
type Fig4Point struct {
	Input       string
	Additive    time.Duration
	Incremental time.Duration
	Recompiles  int
}

// Figure4 compares additive lifting (run the recompiled output natively,
// integrate misses, re-run the pipeline) against BinRec-style incremental
// lifting (a fresh emulator-coupled full trace per input) over inputs of
// increasing complexity for the bzip2-like compressor.
//
// The additive session is one stateful project whose CFG grows input by
// input — its points are order-dependent, so that phase always runs
// serially. The incremental traces are independent full re-lifts and run as
// parallel cells.
func (h *Harness) Figure4() ([]Fig4Point, string, error) {
	defer h.trackWall(time.Now())
	w := workloads.ByName("bzip2_like")
	img, err := w.Compile(2)
	if err != nil {
		return nil, "", err
	}
	inputs := workloads.Bzip2Inputs()

	// Additive session: one project; the "test input" establishes the
	// baseline recompiled binary, then each input runs natively and only
	// misses trigger recompilation loops.
	p, err := core.NewProject(img, h.coreOptions())
	if err != nil {
		return nil, "", err
	}
	defer h.stats.absorb(p)
	if _, err := p.Trace([]core.Input{{Data: inputs[0].Data, Seed: 1}}); err != nil {
		return nil, "", err
	}
	if _, err := p.Recompile(); err != nil {
		return nil, "", err
	}

	pts := make([]Fig4Point, len(inputs))
	for i, in := range inputs {
		t0 := time.Now()
		res, err := p.RunAdditive(core.Input{Data: in.Data, Seed: 1}, 32)
		if err != nil {
			return nil, "", fmt.Errorf("additive %s: %w", in.Name, err)
		}
		pts[i] = Fig4Point{
			Input:      in.Name,
			Additive:   time.Since(t0),
			Recompiles: res.Recompiles,
		}
	}

	// Incremental (BinRec-style): full emulator-coupled trace of each input
	// from program start — one independent cell per input.
	err = h.forEach(len(inputs), func(i int) error {
		in := inputs[i]
		t0 := time.Now()
		if _, err := baselines.BinRecLike(img, in.Data, 1, Fuel, nil); err != nil {
			return fmt.Errorf("incremental %s: %w", in.Name, err)
		}
		pts[i].Incremental = time.Since(t0)
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 4: additive vs incremental lifting (bzip2-like)\n")
	fmt.Fprintf(&sb, "%-16s %-14s %-14s %s\n", "Input", "Additive", "Incremental", "AdditiveRecompiles")
	for _, pt := range pts {
		fmt.Fprintf(&sb, "%-16s %-14s %-14s %d\n", pt.Input,
			pt.Additive.Round(time.Microsecond), pt.Incremental.Round(time.Microsecond),
			pt.Recompiles)
	}
	return pts, sb.String(), nil
}
