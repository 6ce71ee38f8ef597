package image

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The binary form is the artifact store's image payload and the input
// fingerprint's preimage: every field of the image in fixed-width
// little-endian fields, with no field names and no indentation.
//
//	entry, tls size                         u64, u64
//	name, machine                           str, str
//	list flags                              u8 (bit 0: Imports non-nil,
//	                                            bit 1: Sections non-nil)
//	nimports                                u64
//	  per import:   name                    str
//	nsections                               u64
//	  per section:  name                    str
//	                addr, size              u64, u64
//	                section flags           u8 (bit 0: Exec,
//	                                            bit 1: Data non-nil)
//	                data                    bytes
//
// where str and bytes are a u64 length followed by that many bytes. The
// nil bits keep nil and empty apart for Imports, Sections and each
// section's Data, because Marshal writes null for one and []/"" for the
// other: an image that round-trips through this form marshals to the same
// JSON. A flagged-nil list or Data must have length 0, so the form is
// canonical. JSON stays the form people and other processes read: .pxe
// files, the CLIs, and polynimad request and response bodies.

const (
	flagImports  = 1 << 0 // image list flags: Imports is non-nil
	flagSections = 1 << 1 // image list flags: Sections is non-nil
	flagExec     = 1 << 0 // section flags: Exec
	flagData     = 1 << 1 // section flags: Data is non-nil

	headerMinLen  = 16 + 8 + 8 + 1 + 8 + 8 // entry, tls, two str lengths, flags, two counts
	importMinLen  = 8                      // str length
	sectionMinLen = 8 + 16 + 1 + 8         // str length, addr+size, flags, data length
)

// EncodeBinary serializes the image to its binary form.
func (im *Image) EncodeBinary() []byte {
	n := headerMinLen + len(im.Name) + len(im.Machine)
	for _, name := range im.Imports {
		n += importMinLen + len(name)
	}
	for i := range im.Sections {
		n += sectionMinLen + len(im.Sections[i].Name) + len(im.Sections[i].Data)
	}
	buf := make([]byte, 0, n)
	u64 := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	str := func(s string) { u64(uint64(len(s))); buf = append(buf, s...) }
	u64(im.Entry)
	u64(im.TLSSize)
	str(im.Name)
	str(im.Machine)
	var flags byte
	if im.Imports != nil {
		flags |= flagImports
	}
	if im.Sections != nil {
		flags |= flagSections
	}
	buf = append(buf, flags)
	u64(uint64(len(im.Imports)))
	for _, name := range im.Imports {
		str(name)
	}
	u64(uint64(len(im.Sections)))
	for i := range im.Sections {
		s := &im.Sections[i]
		str(s.Name)
		u64(s.Addr)
		u64(s.Size)
		var sf byte
		if s.Exec {
			sf |= flagExec
		}
		if s.Data != nil {
			sf |= flagData
		}
		buf = append(buf, sf)
		u64(uint64(len(s.Data)))
		buf = append(buf, s.Data...)
	}
	return buf
}

var errTruncated = errors.New("image: binary image truncated")

// DecodeBinary parses EncodeBinary's form. The payload may come from a
// shared store, so each count and length is checked against the bytes left
// before anything is sized by it; unknown flag bits, a flagged-nil list or
// Data with entries, trailing bytes, and any section geometry Unmarshal
// rejects are errors. An image it returns owns its bytes (nothing aliases
// data) and re-encodes to exactly data.
func DecodeBinary(data []byte) (*Image, error) {
	if len(data) < 16 {
		return nil, errTruncated
	}
	d := decoder{data: data}
	im := &Image{Entry: d.u64(), TLSSize: d.u64()}
	var err error
	if im.Name, err = d.str(); err != nil {
		return nil, err
	}
	if im.Machine, err = d.str(); err != nil {
		return nil, err
	}
	flags, err := d.flags(flagImports | flagSections)
	if err != nil {
		return nil, err
	}
	ni, err := d.count(importMinLen, flags&flagImports != 0)
	if err != nil {
		return nil, err
	}
	if flags&flagImports != 0 {
		im.Imports = make([]string, ni)
	}
	for i := range im.Imports {
		if im.Imports[i], err = d.str(); err != nil {
			return nil, err
		}
	}
	ns, err := d.count(sectionMinLen, flags&flagSections != 0)
	if err != nil {
		return nil, err
	}
	if flags&flagSections != 0 {
		im.Sections = make([]Section, ns)
	}
	for i := range im.Sections {
		s := &im.Sections[i]
		if s.Name, err = d.str(); err != nil {
			return nil, err
		}
		if len(d.data) < 16 {
			return nil, errTruncated
		}
		s.Addr, s.Size = d.u64(), d.u64()
		sf, err := d.flags(flagExec | flagData)
		if err != nil {
			return nil, err
		}
		s.Exec = sf&flagExec != 0
		n, err := d.count(1, sf&flagData != 0)
		if err != nil {
			return nil, err
		}
		if sf&flagData != 0 {
			s.Data = make([]byte, n)
			copy(s.Data, d.data)
			d.data = d.data[n:]
		}
	}
	if len(d.data) != 0 {
		return nil, fmt.Errorf("image: %d trailing bytes after binary image", len(d.data))
	}
	if err := im.checkSections(); err != nil {
		return nil, err
	}
	return im, nil
}

// decoder reads DecodeBinary's fixed-width fields.
type decoder struct{ data []byte }

// u64 reads one field; callers have checked that 8 bytes remain.
func (d *decoder) u64() uint64 {
	x := binary.LittleEndian.Uint64(d.data)
	d.data = d.data[8:]
	return x
}

// count reads a length prefix of items at least size bytes long each; an
// error unless the prefix and that many items fit in what is left, or if
// the prefix is non-zero for a list flagged nil.
func (d *decoder) count(size int, nonNil bool) (int, error) {
	if len(d.data) < 8 {
		return 0, errTruncated
	}
	n := d.u64()
	if n > uint64(len(d.data)/size) {
		return 0, fmt.Errorf("image: count %d exceeds the %d bytes left", n, len(d.data))
	}
	if n != 0 && !nonNil {
		return 0, fmt.Errorf("image: %d entries flagged nil", n)
	}
	return int(n), nil
}

// str reads a length-prefixed string.
func (d *decoder) str() (string, error) {
	n, err := d.count(1, true)
	if err != nil {
		return "", err
	}
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s, nil
}

// flags reads a flag byte, rejecting bits outside known.
func (d *decoder) flags(known byte) (byte, error) {
	if len(d.data) < 1 {
		return 0, errTruncated
	}
	f := d.data[0]
	d.data = d.data[1:]
	if f&^known != 0 {
		return 0, fmt.Errorf("image: unknown flag bits %#x", f&^known)
	}
	return f, nil
}
