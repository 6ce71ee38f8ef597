package vm

import (
	"repro/internal/mx"
)

// This file implements the predecoded instruction cache keyed by page base.
// On the first fetch into an executable page the machine decodes the whole
// page — one instruction per byte offset, since MX64 is variable-length and
// control can enter at any byte — and compiles it to a handler table
// (step_threaded.go); every later fetch in that page indexes a struct
// instead of calling mx.Decode.
//
// Code bytes are read from guest Memory, not from the image, so the cache
// sees stores into code pages: Memory's write watcher calls invalidateCode
// for any store that lands in an executable range, and the page is
// re-decoded from the updated bytes on the next fetch. Decode windows are
// clamped to the owning section's end, so a final truncated instruction
// decodes as BAD exactly as mx.Decode sees it.

// codePage is the predecoded form of one executable guest page plus its
// per-offset dispatch table, compiled by compile() on the page's first
// execution. Write invalidation drops the whole codePage, so fusion choices
// and flat-run metadata can never outlive the bytes they were compiled
// from.
type codePage struct {
	insts [pageSize]mx.Inst
	// lens[off] is the encoded length of insts[off]; 0 means the address
	// is outside every executable section and fetching it faults.
	lens [pageSize]uint8

	// dispatch state (see step_threaded.go)
	compiled bool
	disp     [pageSize]dispatchEnt
}

// noPage is the icBase sentinel for "no page cached" (never a page base:
// page bases are page-aligned).
const noPage = ^uint64(0)

// fillCodePage predecodes the executable portions of the page at base from
// guest memory. Offsets outside every Exec section keep lens 0 (fetch
// faults there).
func (m *Machine) fillCodePage(base uint64) *codePage {
	cp := new(codePage)
	for i := range m.Img.Sections {
		s := &m.Img.Sections[i]
		if !s.Exec {
			continue
		}
		lo, hi := s.Addr, s.Addr+s.Size
		if lo < base {
			lo = base
		}
		if hi > base+pageSize {
			hi = base + pageSize
		}
		if lo >= hi {
			continue
		}
		run, ok := m.Mem.ReadBytes(lo, hi-lo)
		if !ok {
			continue // loader maps every section page; unreachable
		}
		// Tail: bytes after the page boundary that a straddling
		// instruction may need, clamped to the section end so
		// truncation semantics match mx.Decode over the section.
		var tail []byte
		tailEnd := s.Addr + s.Size
		if max := hi + mx.MaxEncodedLen - 1; tailEnd > max {
			tailEnd = max
		}
		if tailEnd > hi {
			if tb, ok := m.Mem.ReadBytes(hi, tailEnd-hi); ok {
				tail = tb
			}
		}
		insts, lens := mx.DecodePage(run, tail)
		copy(cp.insts[lo-base:], insts)
		copy(cp.lens[lo-base:], lens)
	}
	return cp
}

// invalidateCode drops the predecoded pages that could hold an instruction
// overlapping a written code page: the page itself and its predecessor (an
// instruction starting in the last MaxEncodedLen-1 bytes of the previous
// page straddles into this one). Registered as the Memory write watcher over
// the image's executable ranges.
func (m *Machine) invalidateCode(pageBase uint64) {
	if m.ctr != nil {
		if _, ok := m.icache[pageBase]; ok {
			m.ctr.ICacheInvalidations++
		}
		if _, ok := m.icache[pageBase-pageSize]; ok {
			m.ctr.ICacheInvalidations++
		}
	}
	delete(m.icache, pageBase)
	delete(m.icache, pageBase-pageSize)
	if m.icBase == pageBase || m.icBase == pageBase-pageSize {
		m.icBase, m.icPage = noPage, nil
	}
}
