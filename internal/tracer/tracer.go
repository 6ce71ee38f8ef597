// Package tracer implements the Indirect Control Flow Target (ICFT) tracer:
// the optional, low-overhead dynamic stage of hybrid control-flow recovery
// (§3.2 "Dynamic"). The paper implements it as a Pin tool over native
// execution; here it attaches to the emulator's indirect-transfer hook and
// observes concrete executions of the *original* binary, recording every
// dynamic target of JMPR/JMPM/CALLR instructions. Results from multiple runs
// (different inputs, different scheduler seeds) are merged into the static
// CFG, giving the recompiler the precision of a dynamic lifter without the
// full-emulation cost of BinRec-style tracing.
//
// The same runs also record every guest function the host enters (thread
// entries, library callbacks): the observation the callback-usage analysis
// (§3.3.3) needs, so one execution per input serves both analyses. Entries
// is that observation alone, for inputs no trace session covered.
package tracer

import (
	"fmt"
	"slices"

	"repro/internal/cfg"
	"repro/internal/disasm"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/vm"
)

// Run describes one concrete execution used for tracing.
type Run struct {
	Input []byte
	Seed  int64
	Exts  map[string]vm.ExtFunc // extra host functions (app-specific)
}

// SiteTarget is one merged (site, target) indirect control transfer.
type SiteTarget struct {
	Site, Target uint64
}

// Result summarizes a tracing session.
type Result struct {
	// ICFTs is the number of unique (site, target) indirect control
	// transfers recorded across all runs and merged into the graph (the
	// Table 4 metric). Records whose site block is unknown statically are
	// not counted: they were not merged and stay recordable by later runs.
	ICFTs int
	// NewTargets is how many recorded targets were not already known to the
	// static CFG.
	NewTargets int
	// Runs is the number of executions performed.
	Runs int
	// Insts is the total number of instructions executed while tracing.
	Insts uint64
	// Merged lists every merged pair in merge order — a replayable record of
	// the session's whole effect on the graph. Applying the pairs to the same
	// starting graph (internal/core's trace-artifact replay) reproduces the
	// merged graph without executing anything, so len(Merged) == ICFTs.
	Merged []SiteTarget
	// Entries lists, in ascending order, every guest function the host
	// entered across the runs: spawned threads and host-library callbacks,
	// not the program entry the machine starts at.
	Entries []uint64
}

// Trace runs the original binary under the ICFT tracer for each run and
// merges all recorded indirect targets into g. Unknown targets are
// integrated with a static recursive descent from the discovery point, the
// same integration step additive lifting uses.
//
// A faulted run is still a run that executed real control flow: everything
// it recorded up to the fault is merged before the error is reported, and
// the returned Result carries the counts accumulated so far (the fault may
// well sit on the very path whose targets the caller is tracing toward).
func Trace(img *image.Image, g *cfg.Graph, runs []Run, fuel uint64) (*Result, error) {
	return TraceObs(img, g, runs, fuel, nil, 0, nil)
}

// TraceObs is Trace with span recording and cancellation: when tr is non-nil,
// every concrete execution records an "icft-run" span (with its instruction
// count and how many new ICFT records it produced) on the given trace track.
// When cancel is non-nil, each run stops within a bounded number of
// instructions once it is closed; the interrupted run surfaces as a faulted
// run (with everything recorded up to the stop merged, per the contract
// above), so cancelled callers still get the partial Result.
func TraceObs(img *image.Image, g *cfg.Graph, runs []Run, fuel uint64, tr *obs.Tracer, tid int64, cancel <-chan struct{}) (*Result, error) {
	res := &Result{}
	entries := map[uint64]bool{}
	seen := map[SiteTarget]bool{}
	done := func(err error) (*Result, error) {
		res.ICFTs = len(res.Merged)
		res.Entries = sorted(entries)
		return res, err
	}
	for ri, r := range runs {
		var recs []SiteTarget
		sp := tr.Begin(tid, "tracer", "icft-run", obs.Arg{Key: "run", Val: ri})
		out, err := execute(img, r, fuel, cancel, entries, func(_ *vm.Thread, from, target uint64, kind vm.ControlKind) {
			st := SiteTarget{from, target}
			if kind != vm.KindRet && !seen[st] { // returns are not ICFT sites
				seen[st] = true
				recs = append(recs, st)
			}
		})
		if err != nil {
			sp.End()
			return nil, err
		}
		sp.Arg("insts", out.Insts).Arg("records", len(recs)).End()
		res.Runs++
		res.Insts += out.Insts
		// Merge this run's records into the graph — before the fault check,
		// so a faulted run's observations are neither lost nor left marked
		// in seen where no later run could ever re-record them.
		for _, st := range recs {
			blk := g.BlockContaining(st.Site)
			if blk == nil {
				// The site itself was unknown statically (e.g. code reached
				// only through an unresolved indirect transfer). Unmark it so
				// a later run can re-record the pair once the site is known.
				delete(seen, st)
				continue
			}
			res.Merged = append(res.Merged, st)
			grew, err := disasm.AddIndirectTarget(img, g, blk, st.Target)
			if grew {
				res.NewTargets++
			}
			if err != nil {
				return done(fmt.Errorf("tracer: integrating %#x -> %#x: %w", st.Site, st.Target, err))
			}
		}
		if out.Fault != nil {
			return done(fmt.Errorf("tracer: run %d faulted: %w", res.Runs, out.Fault))
		}
	}
	return done(nil)
}

// Entries runs the original binary once per run, exactly as Trace does, and
// records only the guest functions the host enters: it merges nothing into
// any graph and keeps no ICFT state, so the Result carries Runs, Insts and
// Entries alone. A faulted or cancelled run stops the pass with an error
// wrapping its *vm.Fault.
func Entries(img *image.Image, runs []Run, fuel uint64, cancel <-chan struct{}) (*Result, error) {
	res := &Result{}
	entries := map[uint64]bool{}
	for _, r := range runs {
		out, err := execute(img, r, fuel, cancel, entries, nil)
		if err != nil {
			return nil, err
		}
		res.Runs++
		res.Insts += out.Insts
		if out.Fault != nil {
			return res, fmt.Errorf("tracer: run %d faulted: %w", res.Runs, out.Fault)
		}
	}
	res.Entries = sorted(entries)
	return res, nil
}

// execute builds a machine for one run of the original binary, records each
// guest function the host enters into entries, attaches onIndirect (which
// may be nil), and runs it under fuel.
func execute(img *image.Image, r Run, fuel uint64, cancel <-chan struct{}, entries map[uint64]bool, onIndirect func(*vm.Thread, uint64, uint64, vm.ControlKind)) (vm.Result, error) {
	m, err := vm.NewWithExts(img, r.Seed, r.Exts)
	if err != nil {
		return vm.Result{}, err
	}
	m.SetCancel(cancel)
	if r.Input != nil {
		m.SetInput(r.Input)
	}
	m.OnGuestEntry = func(fn uint64) { entries[fn] = true }
	m.OnIndirect = onIndirect
	return m.Run(fuel), nil
}

// sorted returns a set's members in ascending order.
func sorted(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}
