package tracer_test

import (
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/cfg"
	"repro/internal/disasm"
	"repro/internal/tracer"
	"repro/internal/vm"
)

func TestTracerResolvesIndirectCalls(t *testing.T) {
	img, syms, err := cc.Compile(`
extern input_byte;
func f1(x) { return x + 1; }
func f2(x) { return x + 2; }
func main() {
	var fp = f1;
	if (input_byte() == 'b') { fp = f2; }
	return fp(10);
}`, cc.Config{Name: "p", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	var ind *cfg.Block
	for _, b := range g.Blocks {
		if b.Term == cfg.TermCallInd {
			ind = b
		}
	}
	if ind == nil {
		t.Fatal("no indirect call block")
	}
	if len(ind.Targets) != 0 {
		t.Fatalf("unexpected static targets %v", ind.Targets)
	}

	res, err := tracer.Trace(img, g, []tracer.Run{
		{Input: []byte("a"), Seed: 1},
		{Input: []byte("b"), Seed: 2},
	}, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 2 {
		t.Fatalf("runs = %d", res.Runs)
	}
	if res.ICFTs < 2 {
		t.Fatalf("ICFTs = %d, want >= 2 (both callees)", res.ICFTs)
	}
	for _, fn := range []string{"fn_f1", "fn_f2"} {
		if !ind.HasTarget(syms[fn]) {
			t.Fatalf("traced target %s missing; have %v", fn, ind.Targets)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTracerMergesAcrossRunsIdempotently(t *testing.T) {
	img, _, err := cc.Compile(`
func f1(x) { return x + 1; }
func main() {
	var fp = f1;
	return fp(1);
}`, cc.Config{Name: "p", Opt: 0})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := disasm.Disassemble(img)
	runs := []tracer.Run{{Seed: 1}, {Seed: 2}, {Seed: 3}}
	res, err := tracer.Trace(img, g, runs, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Same site+target in every run: counted once.
	if res.ICFTs != 1 {
		t.Fatalf("ICFTs = %d, want 1", res.ICFTs)
	}
	// A second session adds nothing new.
	res2, err := tracer.Trace(img, g, runs, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res2.NewTargets != 0 {
		t.Fatalf("second session added %d targets", res2.NewTargets)
	}
}

func TestTracerMergesRecordsFromFaultedRun(t *testing.T) {
	// The run records a real ICFT (the fp call) and then faults on a null
	// load. The fault must propagate as an error, but the target recorded
	// before the fault must already be merged into the graph — the fault
	// often sits on the very path whose targets the caller is tracing.
	img, syms, err := cc.Compile(`
func f1(x) { return x + 1; }
func main() {
	var fp = f1;
	var r = fp(1);
	var p = 0;
	return r + *p;
}`, cc.Config{Name: "p", Opt: 0})
	if err != nil {
		t.Fatal(err)
	}
	g, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tracer.Trace(img, g, []tracer.Run{{Seed: 1}}, 10_000_000)
	if err == nil {
		t.Fatal("expected the fault to propagate")
	}
	if res == nil {
		t.Fatal("faulted session returned no partial Result")
	}
	if res.ICFTs != 1 {
		t.Fatalf("ICFTs = %d, want 1 (the pair recorded before the fault)", res.ICFTs)
	}
	var ind *cfg.Block
	for _, b := range g.Blocks {
		if b.Term == cfg.TermCallInd {
			ind = b
		}
	}
	if ind == nil {
		t.Fatal("no indirect call block")
	}
	if !ind.HasTarget(syms["fn_f1"]) {
		t.Fatalf("target recorded before the fault was lost; have %v", ind.Targets)
	}
	// A second session re-observes the same pair but finds it merged: the
	// faulted run's records were not lost and not double-counted.
	res2, err := tracer.Trace(img, g, []tracer.Run{{Seed: 2}}, 10_000_000)
	if err == nil {
		t.Fatal("expected the fault to propagate on the second session too")
	}
	if res2.NewTargets != 0 {
		t.Fatalf("second session added %d targets; the first session's merge was lost", res2.NewTargets)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTracerFaultPropagates(t *testing.T) {
	img, _, err := cc.Compile(`
func main() {
	var p = 0;
	return *p;
}`, cc.Config{Name: "p", Opt: 0})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := disasm.Disassemble(img)
	if _, err := tracer.Trace(img, g, []tracer.Run{{Seed: 1}}, 1_000_000); err == nil {
		t.Fatal("expected fault to propagate")
	}
	_ = vm.Result{}
}

func TestTracerRecordsGuestEntries(t *testing.T) {
	img, syms, err := cc.Compile(`
extern thread_create;
extern thread_join;
func f1(x) { return x + 1; }
func worker(a) { var fp = f1; return fp(a); }
func main() {
	var t1 = thread_create(worker, 1);
	return thread_join(t1);
}`, cc.Config{Name: "p", Opt: 0})
	if err != nil {
		t.Fatal(err)
	}
	g, err := disasm.Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	runs := []tracer.Run{{Seed: 1}, {Seed: 2}}
	res, err := tracer.Trace(img, g, runs, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// The spawned worker only: the machine starts at main on its own.
	if want := []uint64{syms["fn_worker"]}; !reflect.DeepEqual(res.Entries, want) {
		t.Fatalf("traced entries %#x, want %#x", res.Entries, want)
	}
	alone, err := tracer.Entries(img, runs, 10_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alone.Entries, res.Entries) || alone.Runs != 2 || alone.Insts != res.Insts {
		t.Fatalf("entries-only pass %+v, trace session %+v", alone, res)
	}
	if alone.ICFTs != 0 || alone.Merged != nil {
		t.Fatalf("entries-only pass kept ICFT state: %+v", alone)
	}
}
