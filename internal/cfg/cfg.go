// Package cfg defines the control-flow-graph representation shared by the
// whole recompilation pipeline, together with its on-disk JSON form and a
// compact binary form for the artifact store (binary.go).
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
	Entry  uint64
	Funcs  []*Func
	Blocks map[uint64]*Block
}

// wireGraph is Graph's JSON form: the blocks travel as a list in ascending
// address order (JSON objects cannot have integer keys).
type wireGraph struct {
	Entry  uint64   `json:"entry"`
	Funcs  []*Func  `json:"funcs"`
	Blocks []*Block `json:"blocks"`
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
// Overlapping code decodes as blocks of its own, so several blocks may
// cover addr; the one starting highest wins, never whichever the map yields
// first, because the answer decides where merges and splits land.
func (g *Graph) BlockContaining(addr uint64) *Block {
	var best *Block
	for _, b := range g.Blocks {
		if addr >= b.Addr && addr < b.Addr+b.Size && (best == nil || b.Addr > best.Addr) {
			best = b
		}
	}
	return best
}

// NumBlocks returns the number of blocks.
func (g *Graph) NumBlocks() int { return len(g.Blocks) }

// Validate checks structural invariants: every block's terminator is a
// known kind, every function block exists, every direct target of an owned
// block exists, fallthroughs exist.
func (g *Graph) Validate() error {
	for a, b := range g.Blocks {
		if termCode(b.Term) == 0xff {
			return fmt.Errorf("cfg: block %#x: unknown terminator %q", a, b.Term)
		}
	}
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

// sortedBlocks returns the blocks in ascending address order.
func (g *Graph) sortedBlocks() []*Block {
	var out []*Block
	for _, b := range g.Blocks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Marshal serializes the graph to its on-disk JSON form. It leaves the
// graph unchanged.
func (g *Graph) Marshal() ([]byte, error) {
	return json.MarshalIndent(wireGraph{Entry: g.Entry, Funcs: g.Funcs, Blocks: g.sortedBlocks()}, "", " ")
}

// Unmarshal parses an on-disk graph. A null function or block entry is an
// error, and so is any graph Validate rejects: every consumer dereferences
// the blocks a function lists and the targets and fallthroughs they name.
func Unmarshal(data []byte) (*Graph, error) {
	var w wireGraph
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("cfg: %w", err)
	}
	for i, f := range w.Funcs {
		if f == nil {
			return nil, fmt.Errorf("cfg: funcs[%d] is null", i)
		}
	}
	g := &Graph{Entry: w.Entry, Funcs: w.Funcs, Blocks: make(map[uint64]*Block, len(w.Blocks))}
	for i, b := range w.Blocks {
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
