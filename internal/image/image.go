// Package image defines PXE, the executable image format consumed and
// produced by the recompiler.
//
// A PXE image is the moral equivalent of a stripped, non-relocatable ELF
// executable: named sections mapped at fixed virtual addresses, an import
// table naming the external library functions the program calls through
// CALLX, and an entry point. There is no relocation or symbol information —
// exactly the input class Polynima targets (legacy binaries).
package image

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Conventional load addresses. The original binary's sections live in low
// memory; recompiled code is appended above RecompiledBase so the original
// image can be mapped at its original addresses in the output (the paper's
// strategy for handling code/data pointers without relocation info).
const (
	TextBase       uint64 = 0x0000_0000_0040_0000
	DataBase       uint64 = 0x0000_0000_0060_0000
	RodataBase     uint64 = 0x0000_0000_0068_0000
	BSSBase        uint64 = 0x0000_0000_0070_0000
	HeapBase       uint64 = 0x0000_0000_1000_0000
	StackTop       uint64 = 0x0000_0000_7fff_0000
	RecompiledBase uint64 = 0x0000_0000_00a0_0000
	TLSBase        uint64 = 0x0000_0000_0090_0000 // template address space only
)

// Section is a named, contiguous region of the image.
type Section struct {
	Name string `json:"name"` // ".text", ".data", ".rodata", ".bss", ...
	Addr uint64 `json:"addr"`
	Data []byte `json:"data"` // nil for .bss
	Size uint64 `json:"size"` // == len(Data) except for .bss
	Exec bool   `json:"exec"`
}

// Image is a loadable PXE executable.
type Image struct {
	Name     string    `json:"name"`
	Entry    uint64    `json:"entry"`
	Sections []Section `json:"sections"`
	// Imports names the external functions reachable through CALLX, indexed
	// by the instruction's Ext field. This models the dynamic-symbol table of
	// a dynamically linked executable: the only symbolic information a
	// stripped binary retains.
	Imports []string `json:"imports"`
	// TLSSize is the number of bytes of thread-local storage each thread
	// needs. The loader allocates and zeroes a TLS block per thread;
	// TLSBASE yields its address. Recompiled binaries use this for the
	// thread_local virtual CPU state.
	TLSSize uint64 `json:"tls_size"`
	// Machine selects the execution mode the VM runs this image under.
	// Empty means the default machine (MX64, TSO-like ordering); "mx64w"
	// selects the weakly-ordered profile, where plain loads/stores may
	// reorder through a per-thread store buffer unless fenced. Old
	// artifacts carry no field and decode as the default machine.
	Machine string `json:"machine,omitempty"`
}

// Section returns the section with the given name, or nil.
func (im *Image) Section(name string) *Section {
	for i := range im.Sections {
		if im.Sections[i].Name == name {
			return &im.Sections[i]
		}
	}
	return nil
}

// Text returns the primary executable section, or nil.
func (im *Image) Text() *Section { return im.Section(".text") }

// AddSection appends a section, keeping sections sorted by address and
// rejecting overlap.
func (im *Image) AddSection(s Section) error {
	if s.Size == 0 {
		s.Size = uint64(len(s.Data))
	}
	if s.Size < uint64(len(s.Data)) {
		return fmt.Errorf("image: section %s size %d < data %d", s.Name, s.Size, len(s.Data))
	}
	for _, old := range im.Sections {
		if s.Addr < old.Addr+old.Size && old.Addr < s.Addr+s.Size {
			return fmt.Errorf("image: section %s [%#x,%#x) overlaps %s [%#x,%#x)",
				s.Name, s.Addr, s.Addr+s.Size, old.Name, old.Addr, old.Addr+old.Size)
		}
	}
	im.Sections = append(im.Sections, s)
	sort.Slice(im.Sections, func(a, b int) bool { return im.Sections[a].Addr < im.Sections[b].Addr })
	return nil
}

// ImportIndex returns the import-table index for name, adding it if needed.
func (im *Image) ImportIndex(name string) uint16 {
	for i, n := range im.Imports {
		if n == name {
			return uint16(i)
		}
	}
	im.Imports = append(im.Imports, name)
	return uint16(len(im.Imports) - 1)
}

// FindSection returns the section containing addr, or nil.
func (im *Image) FindSection(addr uint64) *Section {
	for i := range im.Sections {
		s := &im.Sections[i]
		if addr >= s.Addr && addr < s.Addr+s.Size {
			return s
		}
	}
	return nil
}

// InText reports whether addr falls inside an executable section.
func (im *Image) InText(addr uint64) bool {
	s := im.FindSection(addr)
	return s != nil && s.Exec
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := &Image{Name: im.Name, Entry: im.Entry, TLSSize: im.TLSSize, Machine: im.Machine}
	out.Imports = append([]string(nil), im.Imports...)
	for _, s := range im.Sections {
		s.Data = append([]byte(nil), s.Data...)
		out.Sections = append(out.Sections, s)
	}
	return out
}

// Marshal serializes the image (JSON; the reproduction's on-disk format).
func (im *Image) Marshal() ([]byte, error) { return json.MarshalIndent(im, "", " ") }

// Unmarshal parses a serialized image. Serialized images cross trust
// boundaries (daemon job bodies, store artifacts), so the section geometry
// is checked before anything maps it: see checkSections.
func Unmarshal(data []byte) (*Image, error) {
	im := new(Image)
	if err := json.Unmarshal(data, im); err != nil {
		return nil, fmt.Errorf("image: %w", err)
	}
	if err := im.checkSections(); err != nil {
		return nil, err
	}
	return im, nil
}

// checkSections enforces, in one pass that allocates nothing on success,
// the section geometry the loader can map: each section holds its data,
// ends at or below HeapBase without wrapping (the loader maps every
// declared byte, and the VM heap begins at HeapBase), and sections come in
// address order without overlap. The first and last rules are AddSection's,
// which every image writer goes through.
func (im *Image) checkSections() error {
	var prevAddr, end uint64
	for i := range im.Sections {
		s := &im.Sections[i]
		sEnd := s.Addr + s.Size
		switch {
		case s.Size < uint64(len(s.Data)):
			return fmt.Errorf("image: section %s size %d < data %d", s.Name, s.Size, len(s.Data))
		case sEnd < s.Addr || sEnd > HeapBase:
			return fmt.Errorf("image: section %s [%#x,+%#x) does not end at or below the heap base %#x",
				s.Name, s.Addr, s.Size, HeapBase)
		case s.Addr < prevAddr:
			return fmt.Errorf("image: section %s at %#x is out of address order", s.Name, s.Addr)
		case s.Size > 0 && s.Addr < end: // an empty section maps nothing
			return fmt.Errorf("image: section %s at %#x overlaps an earlier section ending at %#x",
				s.Name, s.Addr, end)
		}
		prevAddr = s.Addr
		end = max(end, sEnd)
	}
	return nil
}
