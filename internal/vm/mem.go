package vm

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
)

// pageSize is the granularity of the sparse guest address space.
const (
	pageSize  = 1 << pageShift
	pageShift = 12
)

// tlbSize is the number of entries in the direct-mapped software TLB that
// fronts the pages map; tlbIndex picks an address's entry.
const (
	tlbSize = 1 << tlbBits
	tlbBits = 6
)

// tlbIndex returns the TLB entry index of addr's page: the top tlbBits of a
// Fibonacci multiply of the page number. Every region base of the address
// space (.text, .data, .rodata, .bss, recompiled code, the heap, the first
// TLS block) is a multiple of 64 pages, so indexing by the page number's low
// bits put all of them in entry 0; the multiply spreads them.
func tlbIndex(addr uint64) uint64 {
	return (addr >> pageShift) * 0x9e3779b97f4a7c15 >> (64 - tlbBits)
}

// tlbEntry caches one positive page translation. pg == nil marks an empty
// slot; only materialized pages are cached, so a hit never needs
// re-validation.
type tlbEntry struct {
	base uint64
	pg   []byte
}

// Memory is a sparse, paged, flat 64-bit guest address space. All threads of
// a machine share one Memory; per-thread stacks are just disjoint regions of
// it, which is what makes stack-escape and false-sharing hazards expressible.
//
// Memory is demand-zero. Map records a reservation, a range, at a cost that
// does not grow with its size; page() materializes (allocates zeroed) each
// reserved page on its first touch. So a 1 MiB stack the guest barely uses
// costs a few pages, and a huge heap block costs one range until the guest
// touches it. A byte is mapped if its page is materialized or reserved.
type Memory struct {
	// pages holds every materialized page.
	pages map[uint64][]byte

	// reserved holds Map's ranges, sorted, disjoint and never adjacent
	// (touching ranges merge). Each is {first page base, last page base},
	// inclusive, so the top page of the address space is representable. A
	// materialized page may lie inside a range or, when WriteBytes created
	// it, outside every range.
	reserved [][2]uint64

	// tlb is a direct-mapped translation cache in front of pages, so the
	// hot fetch/load/store paths index an array instead of hashing into a
	// map. Only materialized pages are cached, and the address space has
	// no unmap operation (Machine.Free recycles blocks without unmapping),
	// so entries never go stale. Map does not touch it: a reserved page
	// enters the TLB when page() first materializes it.
	tlb [tlbSize]tlbEntry

	// onWrite, when set, is called with the base of every page written
	// through Store/WriteBytes (and the bulk writers below) that intersects
	// one of watchRanges (page aligned, disjoint). The machine registers
	// its executable ranges here so the predecoded instruction cache is
	// invalidated when guest code is stored over (self-modifying or
	// overwritten code). watchLo/watchHi bound all ranges for a cheap
	// reject on the store fast path.
	watchLo, watchHi uint64
	watchRanges      [][2]uint64
	onWrite          func(pageBase uint64)

	// ctr, when the owning machine has counters enabled, receives TLB
	// hit/miss counts from page() (counters.go).
	ctr *Counters
}

// NewMemory returns an empty address space.
func NewMemory() *Memory { return &Memory{pages: map[uint64][]byte{}} }

// watchWrites registers onWrite to fire for every page of ranges written
// through Store/WriteBytes. Ranges are rounded out to page boundaries.
func (m *Memory) watchWrites(ranges [][2]uint64, onWrite func(pageBase uint64)) {
	m.watchRanges = m.watchRanges[:0]
	m.watchLo, m.watchHi = ^uint64(0), 0
	for _, r := range ranges {
		lo := r[0] &^ (pageSize - 1)
		hi := (r[1] + pageSize - 1) &^ (pageSize - 1)
		if lo >= hi {
			continue
		}
		m.watchRanges = append(m.watchRanges, [2]uint64{lo, hi})
		if lo < m.watchLo {
			m.watchLo = lo
		}
		if hi > m.watchHi {
			m.watchHi = hi
		}
	}
	if len(m.watchRanges) == 0 {
		m.onWrite = nil
		return
	}
	m.onWrite = onWrite
}

// noteWrite reports the write [addr, end) to the watcher. Callers guard with
// the watchLo/watchHi envelope so the common case (heap/stack stores) costs
// two compares and no call.
func (m *Memory) noteWrite(addr, end uint64) {
	for _, r := range m.watchRanges {
		lo, hi := r[0], r[1]
		if end <= lo || addr >= hi {
			continue
		}
		a, b := addr, end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		for base := a &^ (pageSize - 1); base < b; base += pageSize {
			m.onWrite(base)
		}
	}
}

// page translates addr to its page and offset, materializing a reserved
// page on first touch. An unmapped page is created when create is set (only
// WriteBytes maps as it goes) and reported as nil otherwise.
func (m *Memory) page(addr uint64, create bool) ([]byte, uint64) {
	base := addr &^ (pageSize - 1)
	e := &m.tlb[tlbIndex(addr)]
	if e.pg != nil && e.base == base {
		if m.ctr != nil {
			m.ctr.TLBHits++
		}
		return e.pg, addr - base
	}
	if m.ctr != nil {
		m.ctr.TLBMisses++
	}
	p := m.pages[base]
	if p == nil {
		if _, ok := m.reservation(base); !ok && !create {
			return nil, 0
		}
		p = make([]byte, pageSize)
		m.pages[base] = p
	}
	e.base, e.pg = base, p
	return p, addr - base
}

// reservation returns the reserved range holding the page at base, if any.
func (m *Memory) reservation(base uint64) ([2]uint64, bool) {
	r := m.reserved
	i := sort.Search(len(r), func(k int) bool { return r[k][1] >= base })
	if i < len(r) && r[i][0] <= base {
		return r[i], true
	}
	return [2]uint64{}, false
}

// Mapped reports whether every byte of [addr, addr+n) is mapped, reserved
// pages included. An empty range is trivially mapped; a range that wraps the
// top of the address space is not. The walk steps over a whole reserved
// range at once, so its cost does not grow with n.
func (m *Memory) Mapped(addr, n uint64) bool {
	if n == 0 {
		return true
	}
	last := addr + n - 1
	if last < addr {
		return false
	}
	end := last &^ (pageSize - 1)
	for p := addr &^ (pageSize - 1); ; p += pageSize {
		if _, ok := m.pages[p]; !ok {
			r, ok := m.reservation(p)
			if !ok {
				return false
			}
			p = r[1]
		}
		if p >= end {
			return true
		}
	}
}

// Map ensures [addr, addr+n) is mapped. It records the range's pages as one
// reservation, merged with any range it overlaps or touches, so its cost
// does not grow with n: the pages read as zero, and page() allocates each
// one on its first touch. A range that would wrap the top of the address
// space is clamped to it.
func (m *Memory) Map(addr, n uint64) {
	if n == 0 {
		return
	}
	last := addr + n - 1
	if last < addr {
		last = ^uint64(0)
	}
	lo, hi := addr&^(pageSize-1), last&^(pageSize-1)
	r := m.reserved
	// i is the first range ending at or after the page below lo, so it
	// may touch [lo, hi]; every range from i that starts at or before the
	// page above hi merges.
	i := sort.Search(len(r), func(k int) bool { return lo == 0 || r[k][1] >= lo-pageSize })
	j := i
	for ; j < len(r) && (r[j][0] <= hi || r[j][0]-pageSize == hi); j++ {
		lo, hi = min(lo, r[j][0]), max(hi, r[j][1])
	}
	m.reserved = slices.Replace(r, i, j, [2]uint64{lo, hi})
}

// WriteBytes copies p into guest memory at addr, mapping as needed.
func (m *Memory) WriteBytes(addr uint64, p []byte) {
	if m.onWrite != nil && addr < m.watchHi && addr+uint64(len(p)) > m.watchLo {
		m.noteWrite(addr, addr+uint64(len(p)))
	}
	for len(p) > 0 {
		pg, off := m.page(addr, true)
		n := copy(pg[off:], p)
		p = p[n:]
		addr += uint64(n)
	}
}

// Fill sets [addr, addr+n) of mapped memory to c in place, one page at a
// time and with no host buffer; the caller checks Mapped first. Filling with
// zero leaves reserved pages unmaterialized, as they already read as zero,
// and a range spanning more pages than are materialized then visits just the
// materialized ones, so clearing costs no allocation and no time that grows
// with n.
func (m *Memory) Fill(addr, n uint64, c byte) {
	if m.onWrite != nil && addr < m.watchHi && addr+n > m.watchLo {
		m.noteWrite(addr, addr+n)
	}
	m.fill(addr, n, c)
}

// fill is Fill without the write watch.
func (m *Memory) fill(addr, n uint64, c byte) {
	if n == 0 {
		return
	}
	if c == 0 && n>>pageShift > uint64(len(m.pages)) {
		last := addr + n - 1
		for base, pg := range m.pages {
			lo, hi := max(base, addr), min(base+pageSize-1, last)
			if lo <= hi {
				clear(pg[lo-base : hi-base+1])
			}
		}
		return
	}
	for n > 0 {
		off := addr & (pageSize - 1)
		k := min(pageSize-off, n)
		if c != 0 {
			pg, _ := m.page(addr, false)
			b := pg[off : off+k]
			for i := range b {
				b[i] = c
			}
		} else if pg := m.pages[addr-off]; pg != nil {
			clear(pg[off : off+k])
		}
		addr += k
		n -= k
	}
}

// Copy copies n bytes from src to dst with memmove semantics (the result is
// as if all of src were read before any of dst is written), one page-bounded
// piece at a time and with no host buffer; the caller checks that both
// ranges are mapped. A piece whose source page is unmaterialized reads as
// zero, so it clears its destination instead, which leaves a reserved
// destination page unmaterialized.
func (m *Memory) Copy(dst, src, n uint64) {
	if m.onWrite != nil && dst < m.watchHi && dst+n > m.watchLo {
		m.noteWrite(dst, dst+n)
	}
	if dst <= src || dst-src >= n {
		for n > 0 {
			k := min(n, pageSize-src&(pageSize-1), pageSize-dst&(pageSize-1))
			m.copyPiece(dst, src, k)
			dst, src, n = dst+k, src+k, n-k
		}
		return
	}
	// dst overlaps the tail of src: copy backward, last piece first.
	for n > 0 {
		k := min(n, (src+n-1)&(pageSize-1)+1, (dst+n-1)&(pageSize-1)+1)
		n -= k
		m.copyPiece(dst+n, src+n, k)
	}
}

// copyPiece copies k bytes from src to dst, each within one page.
func (m *Memory) copyPiece(dst, src, k uint64) {
	soff := src & (pageSize - 1)
	sp := m.pages[src-soff]
	if sp == nil {
		m.fill(dst, k, 0)
		return
	}
	dp, doff := m.page(dst, false)
	copy(dp[doff:doff+k], sp[soff:soff+k])
}

// Swap exchanges the n bytes at a with the n bytes at b, one page-bounded
// piece at a time and with no host buffer; the caller checks that both
// ranges are mapped and that they do not overlap. A piece whose two pages
// are both unmaterialized already matches and stays unmaterialized.
func (m *Memory) Swap(a, b, n uint64) {
	if m.onWrite != nil {
		if a < m.watchHi && a+n > m.watchLo {
			m.noteWrite(a, a+n)
		}
		if b < m.watchHi && b+n > m.watchLo {
			m.noteWrite(b, b+n)
		}
	}
	for n > 0 {
		k := min(n, pageSize-a&(pageSize-1), pageSize-b&(pageSize-1))
		if m.pages[a&^(pageSize-1)] != nil || m.pages[b&^(pageSize-1)] != nil {
			pa, oa := m.page(a, false)
			pb, ob := m.page(b, false)
			x, y := pa[oa:oa+k], pb[ob:ob+k]
			for i := range x {
				x[i], y[i] = y[i], x[i]
			}
		}
		a, b, n = a+k, b+k, n-k
	}
}

// zeroPage stands in for the bytes of an unmaterialized page.
var zeroPage [pageSize]byte

// Visit calls fn with the bytes of [addr, addr+n) in order, one page-bounded
// piece at a time, materializing nothing: an unmaterialized page's piece is
// zeros. fn must not keep or modify its argument. The caller checks Mapped
// first.
func (m *Memory) Visit(addr, n uint64, fn func(p []byte)) {
	for n > 0 {
		off := addr & (pageSize - 1)
		k := min(pageSize-off, n)
		if pg := m.pages[addr-off]; pg != nil {
			fn(pg[off : off+k])
		} else {
			fn(zeroPage[off : off+k])
		}
		addr += k
		n -= k
	}
}

// ReadBytes copies n bytes of guest memory at addr into a new slice. It
// returns false, before allocating anything, if any byte is unmapped.
func (m *Memory) ReadBytes(addr, n uint64) ([]byte, bool) {
	if !m.Mapped(addr, n) {
		return nil, false
	}
	out := make([]byte, n)
	m.read(addr, out)
	return out, true
}

// read copies len(dst) bytes of mapped guest memory at addr into dst,
// materializing the pages it reads.
func (m *Memory) read(addr uint64, dst []byte) {
	for len(dst) > 0 {
		pg, off := m.page(addr, false)
		c := copy(dst, pg[off:])
		dst = dst[c:]
		addr += uint64(c)
	}
}

// fast single-page accessors; fall back to byte-wise for page straddles.

// Load reads a little-endian value of the given width (1, 4, or 8 bytes).
func (m *Memory) Load(addr uint64, width int) (uint64, bool) {
	pg, off := m.page(addr, false)
	if pg != nil && off+uint64(width) <= pageSize {
		switch width {
		case 1:
			return uint64(pg[off]), true
		case 4:
			return uint64(binary.LittleEndian.Uint32(pg[off:])), true
		case 8:
			return binary.LittleEndian.Uint64(pg[off:]), true
		}
	}
	// Slow path: straddling or unmapped.
	b, ok := m.ReadBytes(addr, uint64(width))
	if !ok {
		return 0, false
	}
	switch width {
	case 1:
		return uint64(b[0]), true
	case 4:
		return uint64(binary.LittleEndian.Uint32(b)), true
	case 8:
		return binary.LittleEndian.Uint64(b), true
	}
	return 0, false
}

// Store writes a little-endian value of the given width. It returns false if
// the destination is unmapped (stores never implicitly map memory; only the
// loader, heap and stacks map pages — wild stores fault, as on hardware).
func (m *Memory) Store(addr uint64, v uint64, width int) bool {
	pg, off := m.page(addr, false)
	if pg != nil && off+uint64(width) <= pageSize {
		if m.onWrite != nil && addr < m.watchHi && addr+uint64(width) > m.watchLo {
			m.noteWrite(addr, addr+uint64(width))
		}
		switch width {
		case 1:
			pg[off] = byte(v)
		case 4:
			binary.LittleEndian.PutUint32(pg[off:], uint32(v))
		case 8:
			binary.LittleEndian.PutUint64(pg[off:], v)
		}
		return true
	}
	if !m.Mapped(addr, uint64(width)) {
		return false
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.WriteBytes(addr, b[:width]) // notifies the write watcher itself
	return true
}

// Width-specialized accessors: the TLB probe and bounds check inline into
// the caller, specialized to a constant width, so the dominant single-page
// access pays no call and no width switch. Every fallback (TLB miss, page
// straddle, watched store) routes through the generic path, which also owns
// all counter attribution for those cases — TLB hit/miss counts are
// identical to calling Load/Store directly.

func (m *Memory) load8(addr uint64) (uint64, bool) {
	e := &m.tlb[tlbIndex(addr)]
	off := addr & (pageSize - 1)
	if e.pg != nil && e.base == addr-off {
		if m.ctr != nil {
			m.ctr.TLBHits++
		}
		return uint64(e.pg[off]), true
	}
	return m.Load(addr, 1)
}

func (m *Memory) load32(addr uint64) (uint64, bool) {
	e := &m.tlb[tlbIndex(addr)]
	off := addr & (pageSize - 1)
	if e.pg != nil && e.base == addr-off && off <= pageSize-4 {
		if m.ctr != nil {
			m.ctr.TLBHits++
		}
		return uint64(binary.LittleEndian.Uint32(e.pg[off:])), true
	}
	return m.Load(addr, 4)
}

func (m *Memory) load64(addr uint64) (uint64, bool) {
	e := &m.tlb[tlbIndex(addr)]
	off := addr & (pageSize - 1)
	if e.pg != nil && e.base == addr-off && off <= pageSize-8 {
		if m.ctr != nil {
			m.ctr.TLBHits++
		}
		return binary.LittleEndian.Uint64(e.pg[off:]), true
	}
	return m.Load(addr, 8)
}

func (m *Memory) store8(addr, v uint64) bool {
	e := &m.tlb[tlbIndex(addr)]
	off := addr & (pageSize - 1)
	if e.pg != nil && e.base == addr-off &&
		(m.onWrite == nil || addr >= m.watchHi || addr+1 <= m.watchLo) {
		if m.ctr != nil {
			m.ctr.TLBHits++
		}
		e.pg[off] = byte(v)
		return true
	}
	return m.Store(addr, v, 1)
}

func (m *Memory) store32(addr, v uint64) bool {
	e := &m.tlb[tlbIndex(addr)]
	off := addr & (pageSize - 1)
	if e.pg != nil && e.base == addr-off && off <= pageSize-4 &&
		(m.onWrite == nil || addr >= m.watchHi || addr+4 <= m.watchLo) {
		if m.ctr != nil {
			m.ctr.TLBHits++
		}
		binary.LittleEndian.PutUint32(e.pg[off:], uint32(v))
		return true
	}
	return m.Store(addr, v, 4)
}

func (m *Memory) store64(addr, v uint64) bool {
	e := &m.tlb[tlbIndex(addr)]
	off := addr & (pageSize - 1)
	if e.pg != nil && e.base == addr-off && off <= pageSize-8 &&
		(m.onWrite == nil || addr >= m.watchHi || addr+8 <= m.watchLo) {
		if m.ctr != nil {
			m.ctr.TLBHits++
		}
		binary.LittleEndian.PutUint64(e.pg[off:], v)
		return true
	}
	return m.Store(addr, v, 8)
}

// cstringMax caps CString scans, as a corrupt guest pointer would otherwise
// walk the whole mapped address space.
const cstringMax = 1 << 16

// CString reads a NUL-terminated string at addr. It returns false if the
// string runs into unmapped memory or no NUL appears within cstringMax
// bytes. The scan walks whole pages rather than issuing one Load (and one
// page translation) per byte.
func (m *Memory) CString(addr uint64) (string, bool) {
	var out []byte
	remain := uint64(cstringMax)
	for remain > 0 {
		pg, off := m.page(addr, false)
		if pg == nil {
			return "", false
		}
		chunk := pg[off:]
		if uint64(len(chunk)) > remain {
			chunk = chunk[:remain]
		}
		if i := bytes.IndexByte(chunk, 0); i >= 0 {
			return string(append(out, chunk[:i]...)), true
		}
		out = append(out, chunk...)
		addr += uint64(len(chunk))
		remain -= uint64(len(chunk))
	}
	return "", false
}
