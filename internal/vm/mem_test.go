package vm

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/image"
	"repro/internal/mx"
)

func TestMappedZeroLength(t *testing.T) {
	m := NewMemory()
	if !m.Mapped(0x1234, 0) {
		t.Fatal("Mapped(addr, 0) = false, want true (empty range)")
	}
	if len(m.pages) != 0 {
		t.Fatalf("Mapped(addr, 0) materialized %d page(s)", len(m.pages))
	}
}

func TestMappedOverflow(t *testing.T) {
	m := NewMemory()
	last := ^uint64(0)

	// addr+n wraps past zero: must return false, and must terminate.
	if m.Mapped(last-10, 100) {
		t.Fatal("Mapped over wrapped range = true, want false")
	}
	if m.Mapped(last, 2) {
		t.Fatal("Mapped(^0, 2) = true, want false")
	}

	// The very last page of the address space is still usable.
	m.Map(last&^(pageSize-1), 1)
	if !m.Mapped(last-10, 11) {
		t.Fatal("Mapped tail of last page = false, want true")
	}
	if !m.Mapped(last, 1) {
		t.Fatal("Mapped(^0, 1) on mapped page = false, want true")
	}
	if m.Mapped(last, 2) {
		t.Fatal("Mapped(^0, 2) = true, want false (range wraps)")
	}
}

func TestMappedSpansPages(t *testing.T) {
	m := NewMemory()
	m.Map(0x1000, 2*pageSize)
	if !m.Mapped(0x1000, 2*pageSize) {
		t.Fatal("fully mapped range reported unmapped")
	}
	if !m.Mapped(0x1000+pageSize-4, 8) {
		t.Fatal("range straddling two mapped pages reported unmapped")
	}
	if m.Mapped(0x1000+2*pageSize-4, 8) {
		t.Fatal("range leaking past the mapping reported mapped")
	}
	if m.Mapped(0x0, 8) {
		t.Fatal("unmapped low page reported mapped")
	}
}

func TestCStringSpansPages(t *testing.T) {
	m := NewMemory()
	base := uint64(0x10000)
	m.Map(base, 2*pageSize)
	want := strings.Repeat("x", 100) + "end"
	addr := base + pageSize - 50 // string crosses the page boundary
	m.WriteBytes(addr, append([]byte(want), 0))
	got, ok := m.CString(addr)
	if !ok || got != want {
		t.Fatalf("CString across pages = %q, %v; want %q, true", got, ok, want)
	}
}

func TestCStringUnmapped(t *testing.T) {
	m := NewMemory()
	base := uint64(0x10000)
	m.Map(base, pageSize)
	// Fill the whole page with non-NUL bytes: the scan must stop at the
	// unmapped successor page and report failure, not fault or spin.
	m.WriteBytes(base, []byte(strings.Repeat("a", pageSize)))
	if s, ok := m.CString(base); ok {
		t.Fatalf("CString into unmapped page = %q, true; want false", s)
	}
	if _, ok := m.CString(0xdead0000); ok {
		t.Fatal("CString at unmapped address = true, want false")
	}
}

func TestCStringLengthCap(t *testing.T) {
	m := NewMemory()
	base := uint64(0x10000)
	m.Map(base, cstringMax+pageSize)

	// NUL at exactly cstringMax-1: longest accepted string.
	m.WriteBytes(base, []byte(strings.Repeat("a", cstringMax-1)))
	m.Store(base+cstringMax-1, 0, 1)
	s, ok := m.CString(base)
	if !ok || len(s) != cstringMax-1 {
		t.Fatalf("CString at cap = len %d, %v; want %d, true", len(s), ok, cstringMax-1)
	}

	// First NUL at cstringMax: over the cap, rejected.
	m.Store(base+cstringMax-1, 'a', 1)
	m.Store(base+cstringMax, 0, 1)
	if s, ok := m.CString(base); ok {
		t.Fatalf("CString past cap = len %d, true; want false", len(s))
	}
}

// TestTLBConflict exercises direct-mapped TLB eviction: two pages whose
// page numbers collide in the same TLB slot, accessed alternately.
func TestTLBConflict(t *testing.T) {
	m := NewMemory()
	a := uint64(0x100000)
	b := a + pageSize
	for tlbIndex(b) != tlbIndex(a) { // the next page sharing a's slot
		b += pageSize
	}
	m.Map(a, pageSize)
	m.Map(b, pageSize)
	for i := 0; i < 8; i++ {
		m.Store(a+8, uint64(100+i), 8)
		m.Store(b+8, uint64(200+i), 8)
		va, ok := m.Load(a+8, 8)
		if !ok || va != uint64(100+i) {
			t.Fatalf("iter %d: page a read %d, %v; want %d", i, va, ok, 100+i)
		}
		vb, ok := m.Load(b+8, 8)
		if !ok || vb != uint64(200+i) {
			t.Fatalf("iter %d: page b read %d, %v; want %d", i, vb, ok, 200+i)
		}
	}
}

// TestWriteWatch pins the code-write watch plumbing the instruction cache
// relies on: page-granular callbacks for watched ranges, no callbacks for
// writes outside them, and straddling writes reported once per page.
func TestWriteWatch(t *testing.T) {
	m := NewMemory()
	m.Map(0x1000, 4*pageSize)
	var hits []uint64
	m.watchWrites([][2]uint64{{0x2000, 0x4000}}, func(pageBase uint64) {
		hits = append(hits, pageBase)
	})

	m.Store(0x1000, 1, 8) // below the watched range
	if len(hits) != 0 {
		t.Fatalf("unwatched store fired %v", hits)
	}
	m.Store(0x2008, 1, 8)                 // inside
	m.WriteBytes(0x2ffc, make([]byte, 8)) // straddles 0x2000->0x3000
	m.Store(0x4800, 1, 8)                 // above
	want := []uint64{0x2000, 0x2000, 0x3000}
	if len(hits) != len(want) {
		t.Fatalf("watch hits = %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("watch hits = %v, want %v", hits, want)
		}
	}
}

// materialized counts the allocated pages of m in [lo, hi).
func materialized(m *Memory, lo, hi uint64) int {
	n := 0
	for base, pg := range m.pages {
		if pg != nil && base >= lo && base < hi {
			n++
		}
	}
	return n
}

// TestMapIsDemandZero pins demand-zero paging: Map reserves without
// allocating, reserved pages count as mapped and read as zero, a store
// materializes exactly the page it touches, and the end of the mapping
// still faults.
func TestMapIsDemandZero(t *testing.T) {
	m := NewMemory()
	const base, size = uint64(0x10_0000), uint64(1 << 20)
	m.Map(base, size)
	if n := materialized(m, 0, ^uint64(0)); n != 0 {
		t.Fatalf("Map of 1 MiB materialized %d page(s), want 0", n)
	}
	if !m.Mapped(base, size) {
		t.Fatal("reserved range reported unmapped")
	}
	if !m.Store(base+3*pageSize+8, 0xabcd, 8) {
		t.Fatal("store into reserved page failed")
	}
	if n := materialized(m, 0, ^uint64(0)); n != 1 {
		t.Fatalf("one store materialized %d page(s), want 1", n)
	}
	if v, ok := m.Load(base+7*pageSize+16, 8); !ok || v != 0 {
		t.Fatalf("load from untouched page = %#x, %v; want 0, true", v, ok)
	}
	if v, ok := m.Load(base+3*pageSize+8, 8); !ok || v != 0xabcd {
		t.Fatalf("load back = %#x, %v; want 0xabcd, true", v, ok)
	}
	if m.Store(base+size, 1, 8) {
		t.Fatal("store one page past the mapping succeeded")
	}
	if m.Mapped(base+size, 1) {
		t.Fatal("page past the mapping reported mapped")
	}
}

// TestThreadStacksDemandZero runs a program that spawns and joins two
// threads: each thread's 1 MiB stack must end with only the pages its
// frames touched allocated, not all 256.
func TestThreadStacksDemandZero(t *testing.T) {
	b := asm.NewBuilder("t")
	b.BSS("tids", 16)
	b.Entry("main")
	b.Label("main")
	b.MovRI(mx.R12, 0)
	b.Label("spawn")
	b.I(mx.Inst{Op: mx.CMPRI, Dst: mx.R12, Imm: 2})
	b.Jcc(mx.CondGE, "joins")
	b.MovSym(mx.RDI, "worker")
	b.MovRR(mx.RSI, mx.R12)
	b.CallExt("thread_create")
	b.MovSym(mx.RBX, "tids")
	b.I(mx.Inst{Op: mx.STOREIDX64, Dst: mx.RAX, Base: mx.RBX, Idx: mx.R12, Scale: 8})
	b.I(mx.Inst{Op: mx.ADDRI, Dst: mx.R12, Imm: 1})
	b.Jmp("spawn")
	b.Label("joins")
	b.MovSym(mx.RBX, "tids")
	b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.RBX})
	b.CallExt("thread_join")
	b.MovSym(mx.RBX, "tids")
	b.I(mx.Inst{Op: mx.LOAD64, Dst: mx.RDI, Base: mx.RBX, Disp: 8})
	b.CallExt("thread_join")
	b.MovRI(mx.RAX, 0)
	b.Ret()
	b.Label("worker")
	b.I(mx.Inst{Op: mx.PUSH, Dst: mx.RDI})
	b.I(mx.Inst{Op: mx.POP, Dst: mx.RAX})
	b.Ret()
	img, _, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(img, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(1_000_000); res.Fault != nil || res.ExitCode != 0 {
		t.Fatalf("run: exit %d, fault %v", res.ExitCode, res.Fault)
	}
	if len(m.Threads()) != 3 {
		t.Fatalf("%d threads, want 3", len(m.Threads()))
	}
	for _, th := range m.Threads() {
		if n := materialized(m.Mem, th.StackLo, th.StackLo+stackSize); n > 2 {
			t.Errorf("thread %d: stack materialized %d of %d pages, want at most 2",
				th.ID, n, stackSize/pageSize)
		}
	}
}

// allocDuring returns the bytes the Go heap allocated while f ran.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMapReservesRange pins O(1) reservations: mapping 1 TiB records one
// range and allocates (almost) nothing, every byte of it reads as mapped and
// as zero, a store at its far end materializes just that page, and the
// byte past its end stays unmapped.
func TestMapReservesRange(t *testing.T) {
	m := NewMemory()
	const base, size = uint64(0x10_0000_0000), uint64(1 << 40)
	if grew := allocDuring(func() { m.Map(base, size) }); grew >= 1<<20 {
		t.Fatalf("Map of 1 TiB allocated %d bytes, want < 1 MiB", grew)
	}
	if len(m.reserved) != 1 || len(m.pages) != 0 {
		t.Fatalf("Map of 1 TiB left %d ranges and %d pages, want 1 and 0", len(m.reserved), len(m.pages))
	}
	if !m.Mapped(base, size) || m.Mapped(base, size+1) || m.Mapped(base-1, 2) {
		t.Fatal("Mapped disagrees with the reserved range's edges")
	}
	if !m.Store(base+size-8, 0x5a, 8) {
		t.Fatal("store at the range's end failed")
	}
	if v, ok := m.Load(base+size-8, 8); !ok || v != 0x5a {
		t.Fatalf("load back = %#x, %v; want 0x5a, true", v, ok)
	}
	if n := materialized(m, 0, ^uint64(0)); n != 1 {
		t.Fatalf("%d pages materialized, want 1", n)
	}
	if v, ok := m.Load(base+size/2, 8); !ok || v != 0 {
		t.Fatalf("load from the range's middle = %#x, %v; want 0, true", v, ok)
	}
	if m.Store(base+size, 1, 1) {
		t.Fatal("store one byte past the range succeeded")
	}
}

// TestMappedRangeEdges checks Mapped where ranges meet: reservations that
// touch or overlap merge into one range, a guard page between two keeps them
// apart, and a page WriteBytes created outside every range joins a
// neighbouring reservation on either side.
func TestMappedRangeEdges(t *testing.T) {
	m := NewMemory()
	const a = uint64(0x40_0000)
	m.Map(a+4*pageSize, 2*pageSize) // [4, 6)
	m.Map(a, 2*pageSize)            // [0, 2)
	m.Map(a+2*pageSize+100, 10)     // page 2: touches [0, 2)
	m.Map(a+3*pageSize, 1)          // page 3: touches page 2 and [4, 6)
	if len(m.reserved) != 1 || m.reserved[0] != [2]uint64{a, a + 5*pageSize} {
		t.Fatalf("reserved = %#x, want one range [%#x, %#x]", m.reserved, a, a+5*pageSize)
	}
	m.Map(a+pageSize, 8*pageSize) // overlaps, extends through page 8
	m.Map(a+10*pageSize, 1)       // page 9 stays a guard
	if len(m.reserved) != 2 || m.reserved[0] != [2]uint64{a, a + 8*pageSize} {
		t.Fatalf("reserved = %#x, want [%#x, %#x] and page 10", m.reserved, a, a+8*pageSize)
	}
	for _, c := range []struct {
		addr, n uint64
		want    bool
	}{
		{a, 9 * pageSize, true},
		{a + 9*pageSize - 1, 1, true},  // last byte of the merged range
		{a + 9*pageSize - 4, 8, false}, // runs into the guard page
		{a + 10*pageSize, pageSize, true},
		{a + 10*pageSize - 1, 2, false}, // starts in the guard page
		{a - 1, 1, false},
		{a + 3*pageSize - 8, 16, true}, // across two merged reservations
	} {
		if got := m.Mapped(c.addr, c.n); got != c.want {
			t.Errorf("Mapped(%#x, %d) = %v, want %v", c.addr, c.n, got, c.want)
		}
	}

	// A page WriteBytes creates in the guard joins both neighbours.
	m.WriteBytes(a+9*pageSize+8, []byte{1})
	if !m.Mapped(a+9*pageSize-8, pageSize+16) {
		t.Fatal("materialized page between two ranges breaks the span")
	}
	if len(m.reserved) != 2 {
		t.Fatalf("WriteBytes changed the reservations: %#x", m.reserved)
	}
	// And a page created below the first range joins it from below.
	m.WriteBytes(a-pageSize, []byte{1})
	if !m.Mapped(a-8, 16) || m.Mapped(a-pageSize-1, 2) {
		t.Fatal("materialized page below a range: wrong span")
	}
}

// TestZeroReservedPages checks that clearing leaves reserved pages
// unmaterialized and clears the materialized ones in place, both on a small
// range (walked page by page) and on one spanning far more pages than are
// materialized (which visits just those).
func TestZeroReservedPages(t *testing.T) {
	for _, size := range []uint64{64 * pageSize, 1 << 40} {
		m := NewMemory()
		const base = uint64(0x10_0000_0000)
		m.Map(base, size)
		m.Store(base+pageSize+8, 7, 8)
		m.Store(base+size-8, 9, 8)
		m.Store(base+8, 5, 8)
		grew := allocDuring(func() { m.Fill(base+16, size-16, 0) })
		if grew >= 1<<20 {
			t.Errorf("size %#x: zero Fill allocated %d bytes", size, grew)
		}
		if n := materialized(m, 0, ^uint64(0)); n != 3 {
			t.Errorf("size %#x: %d pages materialized after a zero Fill, want 3", size, n)
		}
		for _, c := range []struct{ addr, want uint64 }{
			{base + 8, 5}, {base + pageSize + 8, 0}, {base + size - 8, 0},
		} {
			if v, _ := m.Load(c.addr, 8); v != c.want {
				t.Errorf("size %#x: load %#x = %d after a zero Fill, want %d", size, c.addr, v, c.want)
			}
		}
	}
}

// TestCopyIsMemmove checks Copy against Go's copy over one flat buffer, for
// overlapping ranges in both directions, page-straddling offsets, and a
// source that runs through an unmaterialized reserved page.
func TestCopyIsMemmove(t *testing.T) {
	const base, size = uint64(0x20_0000), uint64(8 * pageSize)
	for _, c := range []struct{ dst, src, n uint64 }{
		{100, 0, 3*pageSize + 50},                    // dst above src, overlapping
		{0, 100, 3*pageSize + 50},                    // dst below src, overlapping
		{5 * pageSize, 7, 2*pageSize + 1},            // disjoint
		{pageSize - 3, 2*pageSize + 5, 2 * pageSize}, // through the hole
		{2*pageSize + 9, 2*pageSize + 1, 3 * pageSize},
	} {
		m := NewMemory()
		m.Map(base, size)
		ref := make([]byte, size)
		for i := range ref {
			if p := uint64(i) / pageSize; p == 3 {
				continue // page 3 stays unmaterialized
			}
			ref[i] = byte(i*7 + 1)
			m.Store(base+uint64(i), uint64(ref[i]), 1)
		}
		m.Copy(base+c.dst, base+c.src, c.n)
		copy(ref[c.dst:c.dst+c.n], ref[c.src:c.src+c.n])
		got, _ := m.ReadBytes(base, size)
		if !bytes.Equal(got, ref) {
			t.Errorf("Copy(%#x, %#x, %d) differs from memmove", c.dst, c.src, c.n)
		}
	}
}

// TestTLBSpreadsRegionBases: the region bases of the address space (the
// image's sections, recompiled code, the heap, the first TLS block) are
// multiples of 64 pages, so indexing the TLB by the page number's low bits
// put all of them in one entry. The hashed index gives each its own.
func TestTLBSpreadsRegionBases(t *testing.T) {
	bases := []uint64{image.TextBase, image.DataBase, image.RodataBase, image.BSSBase,
		image.RecompiledBase, image.HeapBase, heapEnd}
	seen := map[uint64]uint64{}
	for _, b := range bases {
		i := tlbIndex(b)
		if i >= tlbSize {
			t.Fatalf("tlbIndex(%#x) = %d, outside the %d-entry TLB", b, i, tlbSize)
		}
		if o, ok := seen[i]; ok {
			t.Errorf("region bases %#x and %#x share TLB entry %d", o, b, i)
		}
		seen[i] = b
	}
}
