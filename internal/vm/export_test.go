package vm

import (
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/image"
	"repro/internal/mx"
)

// LazyEagerMismatch compiles every offset of every executable page of a
// fresh machine for img (binding exts) lazily, in an order drawn from seed,
// and compares each offset with what a whole-page pass gives: mx.Decode at
// the offset over its section's bytes (clamped to the straddle tail), then
// the fusion choice and the backward flat-run pass over the page. It returns
// the first difference, or "".
func LazyEagerMismatch(img *image.Image, exts map[string]ExtFunc, seed int64) (string, error) {
	m, err := NewWithExts(img, 1, exts)
	if err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(seed))
	pages := map[uint64]bool{}
	for _, s := range img.Sections {
		if s.Exec && s.Size > 0 {
			for p := s.Addr &^ (pageSize - 1); p < s.Addr+s.Size; p += pageSize {
				pages[p] = true
			}
		}
	}
	for base := range pages {
		cp := m.fillCodePage(base)
		for _, off := range rng.Perm(pageSize) {
			if cp.disp[off].h == nil {
				m.compileAt(cp, base, off)
			}
		}
		insts, disp := eagerPage(m, base)
		for off := 0; off < pageSize; off++ {
			got, want := cp.disp[off], disp[off]
			if cp.insts[off] != insts[off] || got.n != want.n || got.retire != want.retire ||
				got.mop != want.mop || got.flat != want.flat || got.runCost != want.runCost ||
				reflect.ValueOf(got.h).Pointer() != reflect.ValueOf(want.h).Pointer() {
				return fmt.Sprintf("page %#x offset %#x: lazy %v %+v, whole-page %v %+v",
					base, off, cp.insts[off], got, insts[off], want), nil
			}
		}
	}
	return "", nil
}

// eagerPage decodes and compiles the whole page at base the way the cache
// did before it compiled per offset.
func eagerPage(m *Machine, base uint64) (insts [pageSize]mx.Inst, disp [pageSize]dispatchEnt) {
	var lens [pageSize]uint8
	for _, s := range m.Img.Sections {
		if !s.Exec {
			continue
		}
		lo, hi := max(s.Addr, base), min(s.Addr+s.Size, base+pageSize)
		end := min(s.Addr+s.Size, hi+mx.MaxEncodedLen-1)
		for a := lo; a < hi; a++ {
			code, _ := m.Mem.ReadBytes(a, end-a)
			inst, n := mx.Decode(code)
			insts[a-base], lens[a-base] = inst, uint8(n)
		}
	}
	handlers, mops := &opHandlers, &mopOf
	if m.weak {
		handlers, mops = &weakHandlers, &weakMopOf
	}
	for off := 0; off < pageSize; off++ {
		d := &disp[off]
		n := int(lens[off])
		d.n = uint8(n)
		if n == 0 {
			d.h, d.retire = hFetchHole, retireFault
			continue
		}
		op := insts[off].Op
		if op == mx.BAD {
			d.h, d.retire = hIllegal, retireFault
			continue
		}
		d.h, d.retire, d.mop = handlers[op], retireOne, mops[op]
		d.runCost = uint32(costs[op])
		tgt := int64(off) + int64(n) + int64(insts[off].Disp)
		switch {
		case op == mx.CALLX:
			d.retire = retireCallX
		case op == mx.JMP && tgt >= 0 && tgt < pageSize && insts[off].Disp != 0:
			d.retire = retireJmp
		case op == mx.JCC && insts[off].Disp != 0:
			d.retire = retireJcc
		case op == mx.CALL && !m.weak && tgt >= 0 && tgt < pageSize && insts[off].Disp != 0:
			d.retire = retireCall
		case op == mx.RET && !m.weak:
			d.retire = retireRet
		case fuses[op] && off+n < pageSize && lens[off+n] != 0 && insts[off+n].Op == mx.JCC:
			d.retire = retireFused
			d.runCost = uint32(costs[op] + costs[mx.JCC])
		}
	}
	for off := pageSize - 1; off >= 0; off-- {
		d := &disp[off]
		if d.retire != retireOne || !simpleOps[insts[off].Op] {
			continue
		}
		run, cost := uint32(1), d.runCost
		if nxt := off + int(d.n); nxt < pageSize && disp[nxt].flat > 0 {
			run += uint32(disp[nxt].flat)
			cost += disp[nxt].runCost
		}
		d.flat, d.runCost = uint16(run), cost
	}
	return insts, disp
}

// SBEntry is one buffered store: its address, its value masked to its
// width, and its width in bytes.
type SBEntry struct {
	Addr, Val uint64
	W         uint8
}

// StoreBuffers returns a copy of every thread's store buffer, oldest store
// first and indexed by thread ID, and the buffer owner's thread ID (-1 when
// no thread owns the buffer).
func (m *Machine) StoreBuffers() (bufs [][]SBEntry, owner int) {
	owner = -1
	if m.sbOwner != nil {
		owner = m.sbOwner.ID
	}
	for _, t := range m.threads {
		var b []SBEntry
		for _, e := range t.sbuf {
			b = append(b, SBEntry{e.addr, e.val, e.w})
		}
		bufs = append(bufs, b)
	}
	return bufs, owner
}
