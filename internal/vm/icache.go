package vm

import (
	"repro/internal/mx"
)

// This file implements the predecoded instruction cache keyed by page base.
// On the first fetch into an executable page the machine snapshots the
// page's executable bytes and decodes nothing. MX64 is variable-length and
// control can enter at any byte, so each byte offset is decoded and
// compiled (step_threaded.go) on its own first dispatch, together with the
// flat run that starts there. A run therefore decodes the offsets it
// executes, plus the instruction ending each flat run and the JCC a fused
// pair looks ahead to, not the whole page. Every later fetch at an offset
// indexes a struct instead of calling mx.Decode.
//
// Code bytes are read from guest Memory, not from the image, so the cache
// sees stores into code pages: Memory's write watcher calls invalidateCode
// for any store that lands in an executable range, and the page is
// snapshotted and decoded again from the updated bytes on the next fetch.
// Decode windows are clamped to the owning section's end, so a final
// truncated instruction decodes as BAD exactly as mx.Decode sees it.

// codePage is one executable guest page: a snapshot of its code bytes and
// the per-offset instructions and dispatch table compiled from them on
// demand. An offset whose disp entry has no handler is not compiled yet.
// Write invalidation drops the whole codePage, so fusion choices and
// flat-run metadata can never outlive the bytes they were compiled from.
type codePage struct {
	insts [pageSize]mx.Inst
	disp  [pageSize]dispatchEnt

	// code holds the page's executable bytes as of the fill, followed by
	// the straddle tail: up to MaxEncodedLen-1 bytes of the next page that
	// an instruction starting near the page end may need.
	code [pageSize + mx.MaxEncodedLen - 1]byte
	// spans are the page's executable windows. An offset in [lo, hi)
	// decodes from code[off:end], end being its section's end clamped to
	// the tail; an offset in no span is a fetch hole.
	spans []codeSpan
}

// codeSpan is one executable window of a codePage, in page offsets.
type codeSpan struct{ lo, hi, end uint16 }

// noPage is the icBase sentinel for "no page cached" (never a page base:
// page bases are page-aligned).
const noPage = ^uint64(0)

// fillCodePage snapshots the executable portions of the page at base, and
// the straddle tail of the section reaching the page end, from guest
// memory. Offsets outside every Exec section are fetch holes.
func (m *Machine) fillCodePage(base uint64) *codePage {
	cp := new(codePage)
	for i := range m.Img.Sections {
		s := &m.Img.Sections[i]
		if !s.Exec {
			continue
		}
		lo, hi := max(s.Addr, base), min(s.Addr+s.Size, base+pageSize)
		if lo >= hi {
			continue
		}
		// The snapshot runs on past hi into the tail a straddling
		// instruction may need, clamped to the section end so truncation
		// semantics match mx.Decode over the section.
		end := min(s.Addr+s.Size, hi+mx.MaxEncodedLen-1)
		if !m.Mem.Mapped(lo, end-lo) {
			continue // the loader maps every section byte; unreachable
		}
		m.Mem.read(lo, cp.code[lo-base:end-base])
		cp.spans = append(cp.spans, codeSpan{uint16(lo - base), uint16(hi - base), uint16(end - base)})
	}
	return cp
}

// decode decodes the instruction at off from the page's snapshot. A fetch
// hole decodes with length 0.
func (cp *codePage) decode(off int) (mx.Inst, int) {
	for _, s := range cp.spans {
		if off >= int(s.lo) && off < int(s.hi) {
			return mx.Decode(cp.code[off:s.end])
		}
	}
	return mx.Inst{}, 0
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
