// Package cfg defines the control-flow-graph representation shared by the
// whole recompilation pipeline, together with its on-disk JSON form.
//
// This is the contract the paper establishes around its radare2 wrapper: a
// JSON CFG listing functions, the basic blocks belonging to them, and the
// direct control transfers between blocks. Indirect terminators carry a set
// of known targets that is grown by three mechanisms (§3.2): static
// jump-table heuristics (internal/disasm), the ICFT tracer
// (internal/tracer), and additive lifting (internal/core), which appends
// newly discovered targets to the on-disk graph and re-runs the pipeline.
package cfg

import (
	"encoding/json"
	"fmt"
	"sort"
)

// TermKind classifies how a basic block ends.
type TermKind string

const (
	TermJmp     TermKind = "jmp"     // direct jump
	TermJcc     TermKind = "jcc"     // conditional: target + fallthrough
	TermJmpInd  TermKind = "jmpind"  // indirect jump (JMPR/JMPM)
	TermCall    TermKind = "call"    // direct call; fallthrough = return site
	TermCallInd TermKind = "callind" // indirect call
	TermCallExt TermKind = "callext" // external (import) call
	TermRet     TermKind = "ret"
	TermHalt    TermKind = "halt" // hlt / ud2 / syscall
	TermFall    TermKind = "fall" // block split point: falls into next block
)

// Block is one basic block of original machine code.
type Block struct {
	Addr uint64   `json:"addr"`
	Size uint64   `json:"size"` // encoded bytes
	Term TermKind `json:"term"`
	// Targets are the known control-transfer targets of the terminator:
	// the encoded target for direct jumps/calls, and the discovered target
	// set for indirect ones (static heuristics + tracing + additive).
	Targets []uint64 `json:"targets,omitempty"`
	// Fall is the address execution falls to when the terminator does not
	// transfer (jcc untaken, call return, block split); 0 if none.
	Fall uint64 `json:"fall,omitempty"`
	// Ext is the import index for callext terminators.
	Ext uint16 `json:"ext,omitempty"`
}

// HasTarget reports whether addr is already a known target of b.
func (b *Block) HasTarget(addr uint64) bool {
	for _, t := range b.Targets {
		if t == addr {
			return true
		}
	}
	return false
}

// AddTarget adds addr to b's target set if new, keeping the set sorted.
// It reports whether the set changed.
func (b *Block) AddTarget(addr uint64) bool {
	if b.HasTarget(addr) {
		return false
	}
	b.Targets = append(b.Targets, addr)
	sort.Slice(b.Targets, func(i, j int) bool { return b.Targets[i] < b.Targets[j] })
	return true
}

// Func is a recovered function: an entry point plus the set of blocks
// reachable from it through intraprocedural edges.
type Func struct {
	Entry  uint64   `json:"entry"`
	Blocks []uint64 `json:"blocks"` // sorted block addresses
}

// Graph is the whole-program CFG.
type Graph struct {
	Entry  uint64            `json:"entry"`
	Funcs  []*Func           `json:"funcs"`
	Blocks map[uint64]*Block `json:"-"`
	// BlockList is the serialized form of Blocks (JSON maps cannot have
	// integer keys without string round-trips).
	BlockList []*Block `json:"blocks"`
}

// NewGraph returns an empty graph.
func NewGraph(entry uint64) *Graph {
	return &Graph{Entry: entry, Blocks: map[uint64]*Block{}}
}

// Func returns the function with the given entry, or nil.
func (g *Graph) Func(entry uint64) *Func {
	for _, f := range g.Funcs {
		if f.Entry == entry {
			return f
		}
	}
	return nil
}

// AddFunc records a function entry if new and returns it.
func (g *Graph) AddFunc(entry uint64) *Func {
	if f := g.Func(entry); f != nil {
		return f
	}
	f := &Func{Entry: entry}
	g.Funcs = append(g.Funcs, f)
	sort.Slice(g.Funcs, func(i, j int) bool { return g.Funcs[i].Entry < g.Funcs[j].Entry })
	return f
}

// AddBlockToFunc records that block addr belongs to f.
func (g *Graph) AddBlockToFunc(f *Func, addr uint64) {
	for _, b := range f.Blocks {
		if b == addr {
			return
		}
	}
	f.Blocks = append(f.Blocks, addr)
	sort.Slice(f.Blocks, func(i, j int) bool { return f.Blocks[i] < f.Blocks[j] })
}

// FuncOf returns the function owning block addr, or nil.
func (g *Graph) FuncOf(addr uint64) *Func {
	for _, f := range g.Funcs {
		for _, b := range f.Blocks {
			if b == addr {
				return f
			}
		}
	}
	return nil
}

// BlockContaining returns the block whose byte range covers addr, or nil.
func (g *Graph) BlockContaining(addr uint64) *Block {
	for _, b := range g.Blocks {
		if addr >= b.Addr && addr < b.Addr+b.Size {
			return b
		}
	}
	return nil
}

// NumBlocks returns the number of blocks.
func (g *Graph) NumBlocks() int { return len(g.Blocks) }

// Validate checks structural invariants: every function block exists, every
// direct target of an owned block exists, fallthroughs exist.
func (g *Graph) Validate() error {
	for _, f := range g.Funcs {
		for _, ba := range f.Blocks {
			b, ok := g.Blocks[ba]
			if !ok {
				return fmt.Errorf("cfg: func %#x references missing block %#x", f.Entry, ba)
			}
			switch b.Term {
			case TermJmp, TermJcc:
				for _, t := range b.Targets {
					if _, ok := g.Blocks[t]; !ok {
						return fmt.Errorf("cfg: block %#x: missing direct target %#x", ba, t)
					}
				}
			case TermCall:
				for _, t := range b.Targets {
					if g.Func(t) == nil {
						return fmt.Errorf("cfg: block %#x: call target %#x is not a function", ba, t)
					}
				}
			}
			if b.Fall != 0 && b.Term != TermRet && b.Term != TermHalt && b.Term != TermJmp {
				if _, ok := g.Blocks[b.Fall]; !ok {
					return fmt.Errorf("cfg: block %#x: missing fallthrough %#x", ba, b.Fall)
				}
			}
		}
	}
	return nil
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	out := NewGraph(g.Entry)
	for _, f := range g.Funcs {
		nf := &Func{Entry: f.Entry, Blocks: append([]uint64(nil), f.Blocks...)}
		out.Funcs = append(out.Funcs, nf)
	}
	for a, b := range g.Blocks {
		nb := *b
		nb.Targets = append([]uint64(nil), b.Targets...)
		out.Blocks[a] = &nb
	}
	return out
}

// Marshal serializes the graph to its on-disk JSON form.
func (g *Graph) Marshal() ([]byte, error) {
	g.BlockList = g.BlockList[:0]
	addrs := make([]uint64, 0, len(g.Blocks))
	for a := range g.Blocks {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		g.BlockList = append(g.BlockList, g.Blocks[a])
	}
	return json.MarshalIndent(g, "", " ")
}

// Unmarshal parses an on-disk graph. A null function or block entry is an
// error, and so is any graph Validate rejects: every consumer dereferences
// the blocks a function lists and the targets and fallthroughs they name.
func Unmarshal(data []byte) (*Graph, error) {
	g := new(Graph)
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("cfg: %w", err)
	}
	for i, f := range g.Funcs {
		if f == nil {
			return nil, fmt.Errorf("cfg: funcs[%d] is null", i)
		}
	}
	g.Blocks = map[uint64]*Block{}
	for i, b := range g.BlockList {
		if b == nil {
			return nil, fmt.Errorf("cfg: blocks[%d] is null", i)
		}
		g.Blocks[b.Addr] = b
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
