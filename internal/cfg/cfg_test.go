package cfg_test

import (
	"strings"
	"testing"

	"repro/internal/cfg"
)

func buildGraph(t testing.TB) *cfg.Graph {
	t.Helper()
	g := cfg.NewGraph(0x100)
	f := g.AddFunc(0x100)
	g.Blocks[0x100] = &cfg.Block{Addr: 0x100, Size: 8, Term: cfg.TermJcc,
		Targets: []uint64{0x120}, Fall: 0x108}
	g.Blocks[0x108] = &cfg.Block{Addr: 0x108, Size: 4, Term: cfg.TermJmpInd}
	g.Blocks[0x120] = &cfg.Block{Addr: 0x120, Size: 2, Term: cfg.TermRet}
	g.AddBlockToFunc(f, 0x100)
	g.AddBlockToFunc(f, 0x108)
	g.AddBlockToFunc(f, 0x120)
	return g
}

func TestValidateOK(t *testing.T) {
	g := buildGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesMissingTarget(t *testing.T) {
	g := buildGraph(t)
	g.Blocks[0x100].Targets = []uint64{0xdead}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "missing direct target") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateCatchesMissingFuncBlock(t *testing.T) {
	g := buildGraph(t)
	g.AddBlockToFunc(g.Func(0x100), 0x999)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "missing block") {
		t.Fatalf("err = %v", err)
	}
}

func TestAddTargetSortedAndIdempotent(t *testing.T) {
	b := &cfg.Block{Addr: 1, Term: cfg.TermJmpInd}
	if !b.AddTarget(0x30) || !b.AddTarget(0x10) || !b.AddTarget(0x20) {
		t.Fatal("adds failed")
	}
	if b.AddTarget(0x20) {
		t.Fatal("duplicate add reported change")
	}
	if b.Targets[0] != 0x10 || b.Targets[1] != 0x20 || b.Targets[2] != 0x30 {
		t.Fatalf("not sorted: %x", b.Targets)
	}
}

func TestIndirectBlocksAndContaining(t *testing.T) {
	g := buildGraph(t)
	if b := g.BlockContaining(0x105); b == nil || b.Addr != 0x100 {
		t.Fatal("containing lookup failed")
	}
	if b := g.BlockContaining(0x10c); b != nil {
		t.Fatal("matched past block end")
	}
	if f := g.FuncOf(0x108); f == nil || f.Entry != 0x100 {
		t.Fatal("FuncOf failed")
	}
}

// TestBlockContainingOverlapIsDeterministic: overlapping code decodes as
// blocks of its own, so two blocks may cover one address. The lookup must
// name the same one, the highest-starting, on every call, not whichever the
// block map yields first: trace and additive merges land on its answer.
func TestBlockContainingOverlapIsDeterministic(t *testing.T) {
	g := cfg.NewGraph(0x1000)
	g.Blocks[0x1000] = &cfg.Block{Addr: 0x1000, Size: 14, Term: cfg.TermRet}
	g.Blocks[0x1002] = &cfg.Block{Addr: 0x1002, Size: 12, Term: cfg.TermRet}
	for i := 0; i < 64; i++ {
		if b := g.BlockContaining(0x100a); b == nil || b.Addr != 0x1002 {
			t.Fatalf("call %d: BlockContaining(0x100a) = %+v, want the block at 0x1002", i, b)
		}
	}
	if b := g.BlockContaining(0x1001); b == nil || b.Addr != 0x1000 {
		t.Fatalf("BlockContaining(0x1001) = %+v, want the block at 0x1000", b)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildGraph(t)
	c := g.Clone()
	c.Blocks[0x108].AddTarget(0x120)
	if g.Blocks[0x108].HasTarget(0x120) {
		t.Fatal("clone shares target slices")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRoundTripPreservesExt(t *testing.T) {
	g := buildGraph(t)
	g.Blocks[0x108].Term = cfg.TermCallExt
	g.Blocks[0x108].Ext = 7
	g.Blocks[0x108].Fall = 0x120
	data, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := cfg.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Blocks[0x108].Ext != 7 || g2.Blocks[0x108].Term != cfg.TermCallExt {
		t.Fatalf("ext lost: %+v", g2.Blocks[0x108])
	}
}

// unmarshalRejects are checkpoints Unmarshal must reject, each with a
// fragment of the error it must return.
var unmarshalRejects = []struct{ in, want string }{
	{`{"entry":1,"funcs":[],"blocks":[null]}`, "null"},
	{`{"entry":1,"funcs":[null],"blocks":[]}`, "null"},
	{`{"entry":1,"funcs":[{"entry":1,"blocks":[1,9]}],"blocks":[{"addr":1,"size":1,"term":"ret"}]}`,
		"missing block 0x9"},
	{`{"entry":1,"funcs":[{"entry":1,"blocks":[1]}],"blocks":[{"addr":1,"size":1,"term":"jmp","targets":[9]}]}`,
		"missing direct target 0x9"},
	{`{"entry":1,"funcs":[{"entry":1,"blocks":[1]}],"blocks":[{"addr":1,"size":1,"term":"fall","fall":9}]}`,
		"missing fallthrough 0x9"},
	{`{"entry":1,"funcs":[],"blocks":[{"addr":1,"size":1,"term":"loop"}]}`, "unknown terminator"},
}

// TestUnmarshalRejectsNullEntries: null function or block entries in a
// checkpoint, blocks a graph names but does not hold, and terminators of no
// known kind are decode errors, not nil pointers for Unmarshal or a later
// consumer to dereference.
func TestUnmarshalRejectsNullEntries(t *testing.T) {
	for _, c := range unmarshalRejects {
		if g, err := cfg.Unmarshal([]byte(c.in)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: graph %+v, error %v; want an error containing %q", c.in, g, err, c.want)
		}
	}
}
