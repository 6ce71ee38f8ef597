package spindet_test

import (
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/spindet"
)

// The tests mirror Listing 3: each case builds a small program whose loop
// has the shape in question and checks the analysis verdict through the full
// instrument-run-analyze pipeline.

func analyze(t *testing.T, src string, ccOpt int, inputs ...core.Input) *spindet.Report {
	t.Helper()
	img, _, err := cc.Compile(src, cc.Config{Name: "t", Opt: ccOpt})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.VerifyIR = true
	p, err := core.NewProject(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) == 0 {
		inputs = []core.Input{{Seed: 11}}
	}
	rep, err := p.FenceOptimize(inputs)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// Case (a): direct external dependency — spin on a shared global.
func TestListing3aSpinOnGlobalLoad(t *testing.T) {
	src := `
extern thread_create;
extern thread_join;
var flag = 0;
func waiter(a) {
	while (load64(&flag) == 0) { }
	return 1;
}
func main() {
	var t1 = thread_create(waiter, 0);
	store64(&flag, 1);
	return thread_join(t1);
}`
	rep := analyze(t, src, 2)
	if rep.FencesRemovable || rep.Spinning == 0 {
		t.Fatalf("shared-load spinloop not detected: %+v", rep)
	}
}

// Case (b): indirect external dependency — the shared value flows through a
// local slot before influencing the exit.
func TestListing3bSpinThroughLocalCopy(t *testing.T) {
	src := `
extern thread_create;
extern thread_join;
var flag = 0;
func waiter(a) {
	var seen = 0;
	while (seen == 0) {
		seen = load64(&flag);
	}
	return 1;
}
func main() {
	var t1 = thread_create(waiter, 0);
	store64(&flag, 1);
	return thread_join(t1);
}`
	// At O0 the local lives in stack memory, exactly Listing 3 (b).
	rep := analyze(t, src, 0)
	if rep.FencesRemovable || rep.Spinning == 0 {
		t.Fatalf("indirect spin dependency not detected: %+v", rep)
	}
}

// Case (e): register-allocated loop index — the canonical non-spinloop.
func TestListing3eCountedLoopRegister(t *testing.T) {
	src := `
func main() {
	var s = 0;
	var i;
	for (i = 0; i < 20; i = i + 1) { s = s + i; }
	return s;
}`
	rep := analyze(t, src, 2)
	if !rep.FencesRemovable {
		for _, l := range rep.Loops {
			t.Logf("%+v", l)
		}
		t.Fatal("counted register loop not proven non-spinning")
	}
}

// Case (d): the loop index lives in stack memory (unoptimized code) — the
// exit depends on a local store of a non-constant value.
func TestListing3dCountedLoopMemory(t *testing.T) {
	src := `
func main() {
	var s = 0;
	var i;
	for (i = 0; i < 20; i = i + 1) { s = s + i; }
	return s;
}`
	rep := analyze(t, src, 0)
	if !rep.FencesRemovable {
		for _, l := range rep.Loops {
			t.Logf("%+v", l)
		}
		t.Fatal("memory-resident counted loop not proven non-spinning (Listing 3 (d))")
	}
}

// Case (c): a loop whose exit-feeding local only ever receives a constant —
// must be classified as (potentially) spinning.
func TestListing3cConstantStoreSpins(t *testing.T) {
	src := `
extern thread_create;
extern thread_join;
var sync = 0;
func waiter(a) {
	var done = 0;
	while (done == 0) {
		if (load64(&sync) != 0) { done = 1; }
	}
	return 0;
}
func main() {
	var t1 = thread_create(waiter, 0);
	store64(&sync, 1);
	return thread_join(t1);
}`
	rep := analyze(t, src, 0)
	if rep.FencesRemovable {
		t.Fatalf("constant-store spin wrongly proven non-spinning: %+v", rep.Loops)
	}
}

// CKit-style cmpxchg spinlock: the atomic in the exit condition is an
// external dependency by definition.
func TestCasSpinlockDetected(t *testing.T) {
	src := `
extern thread_create;
extern thread_join;
var lock = 0;
var n = 0;
func w(a) {
	var i;
	for (i = 0; i < 20; i = i + 1) {
		while (atomic_cas(&lock, 0, 1) == 0) { }
		n = n + 1;
		store64(&lock, 0);
	}
	return 0;
}
func main() {
	var t1 = thread_create(w, 0);
	var t2 = thread_create(w, 0);
	thread_join(t1);
	thread_join(t2);
	return n;
}`
	rep := analyze(t, src, 2)
	if rep.FencesRemovable || rep.Spinning == 0 {
		t.Fatalf("cmpxchg spinlock not detected: %+v", rep)
	}
}

// Phoenix-style program: pthread-like synchronization only; everything else
// is data-parallel loops. All loops non-spinning.
func TestExternalSyncOnlyProgramRemovable(t *testing.T) {
	src := `
extern thread_create;
extern thread_join;
extern mutex_lock;
extern mutex_unlock;
var mu = 0;
var acc = 0;
func worker(arg) {
	var local = 0;
	var i;
	for (i = 0; i < 30; i = i + 1) { local = local + i * arg; }
	mutex_lock(&mu);
	acc = acc + local;
	mutex_unlock(&mu);
	return 0;
}
func main() {
	var t1 = thread_create(worker, 1);
	var t2 = thread_create(worker, 2);
	thread_join(t1);
	thread_join(t2);
	return acc % 97;
}`
	rep := analyze(t, src, 2)
	if !rep.FencesRemovable {
		for _, l := range rep.Loops {
			t.Logf("%+v", l)
		}
		t.Fatal("externally synchronized program not proven fence-removable")
	}
}

// TestReportDeterministic repeats the pipeline over two loops whose Reason
// could name more than one place: one with never-executed sites in two
// blocks, and a covered one with two exits that both depend on the loop
// index. Every repeat must give the identical Report, Reason included.
func TestReportDeterministic(t *testing.T) {
	src := `
var g = 0;
var h = 0;
func scan(k) {
	var s = 0;
	var i;
	for (i = 0; i < 20; i = i + 1) {
		if (i > 100) { s = s + load64(&g); }
		if (i > 200) { s = s + load64(&h); }
		s = s + i;
	}
	for (i = 0; i < 30; i = i + 1) {
		if (i == k) { return s; }
		s = s + 1;
	}
	return s;
}
func main() {
	return scan(25) % 97;
}`
	for _, ccOpt := range []int{0, 2} {
		first := analyze(t, src, ccOpt)
		if first.Uncovered == 0 {
			t.Fatalf("O%d: no uncovered loop: %+v", ccOpt, first.Loops)
		}
		for i := 0; i < 16; i++ {
			if rep := analyze(t, src, ccOpt); !reflect.DeepEqual(rep, first) {
				t.Fatalf("O%d repeat %d: report differs:\n%+v\nfirst:\n%+v", ccOpt, i, rep.Loops, first.Loops)
			}
		}
	}
}
