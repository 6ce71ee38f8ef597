package core

// Internal tests for the run of the original binary that the ICFT tracer
// and the callback-usage analysis share: PruneCallbacks reuses the guest
// entries of a trace session over the same inputs, live or replayed from
// the store, and the trace artifact that carries them decodes untrusted
// bytes without panicking.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tracer"
	"repro/internal/vm"
)

// pruneSrc is TestPruneCallbacks' program: h_unused is address-taken but
// never called, worker is entered from the host as a thread.
const pruneSrc = `
extern thread_create;
extern thread_join;
var fp = 0;
func h_unused(x) { return x; }
func worker(a) { return a * 2; }
func main() {
	store64(&fp, h_unused);
	var t1 = thread_create(worker, 21);
	return thread_join(t1);
}`

// pruneProject compiles src into a project that records spans into tr and
// uses backing as its store tier (nil: private memory tier only).
func pruneProject(t *testing.T, src string, tr *obs.Tracer, backing store.Store) *Project {
	t.Helper()
	img, _, err := cc.Compile(src, cc.Config{Name: "t", Opt: 2})
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.VerifyIR = true
	o.Obs = tr
	o.Store = backing
	p, err := NewProject(img, o)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// spanArg returns arg key of tr's last pipeline/name span that has one.
func spanArg(t *testing.T, tr *obs.Tracer, name, key string) any {
	t.Helper()
	evs := tr.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Cat == "pipeline" && evs[i].Name == name {
			for _, a := range evs[i].Args {
				if a.Key == key {
					return a.Val
				}
			}
		}
	}
	t.Fatalf("no pipeline/%s span with a %s arg", name, key)
	return nil
}

func TestPruneCallbacksReusesTraceSession(t *testing.T) {
	in := []Input{{Seed: 2}}

	// Oracle: a fresh project's standalone analysis, which runs the input.
	ftr := obs.New()
	fresh := pruneProject(t, pruneSrc, ftr, nil)
	if err := fresh.PruneCallbacks(in); err != nil {
		t.Fatal(err)
	}
	if got := spanArg(t, ftr, "prune-callbacks", "runs"); got != 1 {
		t.Fatalf("standalone analysis ran %v runs, want 1", got)
	}
	if _, err := fresh.Recompile(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	traced := func() (*Project, *obs.Tracer, []byte) {
		d, err := store.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.New()
		p := pruneProject(t, pruneSrc, tr, d)
		if _, err := p.Trace(in); err != nil {
			t.Fatal(err)
		}
		if err := p.PruneCallbacks(in); err != nil {
			t.Fatal(err)
		}
		if got := spanArg(t, tr, "prune-callbacks", "runs"); got != 0 {
			t.Fatalf("analysis after a matching trace ran %v runs, want 0", got)
		}
		if !reflect.DeepEqual(p.callbackSet, fresh.callbackSet) {
			t.Fatalf("reused callback set %v, standalone %v", p.callbackSet, fresh.callbackSet)
		}
		rec, err := p.Recompile()
		if err != nil {
			t.Fatal(err)
		}
		if p.Stats.NumExternal != fresh.Stats.NumExternal {
			t.Fatalf("NumExternal %d, standalone %d", p.Stats.NumExternal, fresh.Stats.NumExternal)
		}
		data, err := rec.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return p, tr, data
	}
	live, tr, liveBytes := traced()
	_, rtr, replayedBytes := traced()
	if tier := spanArg(t, rtr, "icft-trace", "tier"); tier != "disk" {
		t.Fatalf("second project's trace came from tier %v, want disk", tier)
	}
	if !bytes.Equal(liveBytes, replayedBytes) {
		t.Fatal("recompile after a replayed trace diverged from the live one")
	}

	// Other inputs than the session's: the analysis runs them.
	if err := live.PruneCallbacks([]Input{{Seed: 5}}); err != nil {
		t.Fatal(err)
	}
	if got := spanArg(t, tr, "prune-callbacks", "runs"); got != 1 {
		t.Fatalf("analysis over another seed ran %v runs, want 1", got)
	}

	// A faulted session leaves nothing to reuse: the analysis reruns the
	// input and reports the run's fault, as it always has.
	faulty := pruneProject(t, "func main() { var p = 0; return *p; }", nil, nil)
	if _, err := faulty.Trace(nil); err == nil {
		t.Fatal("trace of a faulting program succeeded")
	}
	err := faulty.PruneCallbacks(nil)
	var f *vm.Fault
	if !errors.As(err, &f) || !strings.Contains(err.Error(), "core: callback analysis run faulted") {
		t.Fatalf("analysis after a faulted trace: err = %v, want the run's *vm.Fault", err)
	}
	if faulty.callbackSet != nil {
		t.Fatal("faulted analysis set a callback set")
	}
}

// wrappedTrace is a 40-byte trace payload whose pair count, 2^60, makes
// 16*count wrap to zero.
func wrappedTrace() []byte {
	data := make([]byte, 40)
	binary.LittleEndian.PutUint64(data[32:], 1<<60)
	return data
}

// goodTrace is a well-formed trace payload with two pairs and two entries.
func goodTrace() []byte {
	return encodeTraceArtifact(&tracer.Result{
		ICFTs: 2, NewTargets: 1, Runs: 1, Insts: 99,
		Merged:  []tracer.SiteTarget{{Site: 0x10, Target: 0x20}, {Site: 0x30, Target: 0x40}},
		Entries: []uint64{0x50, 0x60},
	})
}

// badTrace is a named trace payload decodeTraceArtifact must reject.
type badTrace struct {
	name string
	data []byte
}

// badTraces are the malformed payloads, one per count or length check.
func badTraces() []badTrace {
	good := goodTrace()
	wrappedEntries := encodeTraceArtifact(&tracer.Result{})
	binary.LittleEndian.PutUint64(wrappedEntries[40:], 1<<61)
	return []badTrace{
		{"wrapped pair count", wrappedTrace()},
		{"wrapped entry count", wrappedEntries},
		{"pairs past the end", good[:56]},
		{"no entry count", good[:72]},
		{"truncated entry", good[:len(good)-1]},
		{"short header", good[:31]},
		{"trailing byte", append(append([]byte(nil), good...), 0)},
	}
}

func TestDecodeTraceArtifactRejectsBadCounts(t *testing.T) {
	for _, tc := range badTraces() {
		if res, ok := decodeTraceArtifact(tc.data); ok {
			t.Errorf("%s: decoded %+v, want a miss", tc.name, res)
		}
	}
	good := goodTrace()
	res, ok := decodeTraceArtifact(good)
	if !ok || !bytes.Equal(encodeTraceArtifact(res), good) {
		t.Fatalf("round trip failed: %+v, %v", res, ok)
	}
}

// TestTraceFallsBackOnWrappedArtifact seeds a project's store with the
// wrapped payload under its session's trace key, as any daemon client may
// PUT it: the session must miss and run live, reporting what a project with
// a clean store reports.
// FuzzDecodeTraceArtifact fuzzes the trace artifact decoder: any polynimad
// client may PUT trace/<key>. It must miss, or return a result that
// encodeTraceArtifact re-encodes to the same bytes; it must never panic.
// The committed corpus holds one real session's artifact.
func FuzzDecodeTraceArtifact(f *testing.F) {
	f.Add(goodTrace())
	for _, tc := range badTraces() {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, ok := decodeTraceArtifact(data)
		if ok && !bytes.Equal(encodeTraceArtifact(res), data) {
			t.Fatalf("decoded %+v re-encodes to different bytes", res)
		}
	})
}

func TestTraceFallsBackOnWrappedArtifact(t *testing.T) {
	in := []Input{{Seed: 2}}
	want, err := pruneProject(t, pruneSrc, nil, nil).Trace(in)
	if err != nil {
		t.Fatal(err)
	}
	p := pruneProject(t, pruneSrc, nil, nil)
	key, ok := p.traceKey(p.runsKey(p.tracerRuns(in)))
	if !ok {
		t.Fatal("no trace key")
	}
	p.storePut(nsTrace, key, wrappedTrace())
	got, err := p.Trace(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.StoreMemHits == 0 {
		t.Fatal("the session never read the seeded entry")
	}
	if !reflect.DeepEqual(got, want) || len(got.Entries) == 0 {
		t.Fatalf("session over a wrapped artifact: %+v, want %+v", got, want)
	}
}
