package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json -compare reads.
type benchDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDef(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// loadRecords reads every record in a file (one or more JSON records, e.g.
// one per line) or in the .json and .jsonl files of a directory.
func loadRecords(path string) ([]*record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files = nil
		for _, pat := range []string{"*.json", "*.jsonl"} {
			m, _ := filepath.Glob(filepath.Join(path, pat))
			files = append(files, m...)
		}
		sort.Strings(files)
	}
	var out []*record
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(fh)
		for {
			var r record
			if err := dec.Decode(&r); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				fh.Close()
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			if r.Schema == recordSchema {
				out = append(out, &r)
			}
		}
		fh.Close()
	}
	return out, nil
}

// verdictRow compares one (workload, end-to-end metric) across two sets of
// untraced runs.
type verdictRow struct {
	workload, metric string
	oldMed, newMed   float64
	change           float64 // relative change, positive = worse
	spread           float64 // larger of the two sides' quartile spread / median
	bound            float64
	verdict          string
}

// judge classifies a metric's runs. A side's spread is the distance between
// its quartiles relative to its median. The row is unresolved when a spread
// exceeds the bound (unless every new run beats every old one), regressed
// when the new median is worse by more than the bound, improved when it is
// better by more than the spread and wins nine tenths of all run pairs.
func judge(old, new []float64, lowerBetter bool, bound float64) (verdict string, change, spread float64) {
	mo, mn := median(old), median(new)
	change = relChange(mo, mn, lowerBetter)
	spread = math.Max(relSpread(old), relSpread(new))
	better := func(n, o float64) bool {
		if lowerBetter {
			return n < o
		}
		return n > o
	}
	wins, all := 0, true
	for _, o := range old {
		for _, n := range new {
			if better(n, o) {
				wins++
			} else {
				all = false
			}
		}
	}
	switch {
	case spread > bound && !all:
		return "unresolved", change, spread
	case change > bound:
		return "regressed", change, spread
	case change < 0 && -change > spread && float64(wins) >= 0.9*float64(len(old)*len(new)):
		return "improved", change, spread
	}
	return "unchanged", change, spread
}

func relChange(old, new float64, lowerBetter bool) float64 {
	if old == new {
		return 0
	}
	if old == 0 {
		return math.Inf(1)
	}
	d := (new - old) / math.Abs(old)
	if !lowerBetter {
		d = -d
	}
	return d
}

func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := quartiles(s)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// compareSets produces one row per (workload, end-to-end metric) present on
// both sides, plus a "failures" row per workload (failed / attempted).
func compareSets(def *benchDef, old, new []*record) []verdictRow {
	byWL := func(rs []*record) map[string][]*record {
		m := map[string][]*record{}
		for _, r := range rs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	ow, nw := byWL(old), byWL(new)
	var wls []string
	for w := range ow {
		if _, ok := nw[w]; ok {
			wls = append(wls, w)
		}
	}
	sort.Strings(wls)
	var rows []verdictRow
	for _, w := range wls {
		for _, md := range def.EndToEnd {
			ov, nv := values(ow[w], md.Name), values(nw[w], md.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			v, ch, sp := judge(ov, nv, md.Better == "lower", md.Bound)
			rows = append(rows, verdictRow{w, md.Name, median(ov), median(nv), ch, sp, md.Bound, v})
		}
		fo, fn := failFrac(ow[w]), failFrac(nw[w])
		v := "unchanged"
		if fn > fo {
			v = "regressed"
		}
		rows = append(rows, verdictRow{w, "failures", fo, fn, fn - fo, 0, 0, v})
	}
	return rows
}

func values(rs []*record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failFrac(rs []*record) float64 {
	var a, f int
	for _, r := range rs {
		a += r.Run.Attempted
		f += r.Run.Failed
	}
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// compareMain prints the comparison and returns non-zero on any regression.
func compareMain(w io.Writer, defPath, oldPath, newPath string) int {
	def, err := loadDef(defPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var sets [2][]*record
	for i, p := range []string{oldPath, newPath} {
		if sets[i], err = loadRecords(p); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	rows := compareSets(def, sets[0], sets[1])
	fmt.Fprintf(w, "%-8s %-22s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	status := 0
	counts := map[string]int{}
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-22s %14.6g %14.6g %+8.2f%% %7.2f%% %6.2f%%  %s\n", r.workload, r.metric,
			r.oldMed, r.newMed, 100*r.change, 100*r.spread, 100*r.bound, r.verdict)
		counts[r.verdict]++
		if r.verdict == "regressed" {
			status = 1
		}
	}
	var parts []string
	for _, v := range []string{"improved", "unchanged", "regressed", "unresolved"} {
		parts = append(parts, fmt.Sprintf("%d %s", counts[v], v))
	}
	fmt.Fprintf(w, "%s (%d old runs, %d new runs)\n", strings.Join(parts, ", "), len(sets[0]), len(sets[1]))
	return status
}
