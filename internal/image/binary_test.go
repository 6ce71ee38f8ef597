package image_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/image"
)

// sampleImage has every field set, an empty-but-non-nil import list entry,
// a .bss with nil Data and an empty section with empty non-nil Data.
func sampleImage() *image.Image {
	return &image.Image{
		Name: "prog", Entry: image.TextBase, TLSSize: 128, Machine: "mx64w",
		Imports: []string{"exit", "", "malloc"},
		Sections: []image.Section{
			{Name: ".text", Addr: image.TextBase, Data: []byte{1, 2, 3}, Size: 3, Exec: true},
			{Name: ".data", Addr: image.DataBase, Data: []byte{}, Size: 0},
			{Name: ".bss", Addr: image.BSSBase, Size: 64},
		},
	}
}

func marshal(t *testing.T, im *image.Image) []byte {
	t.Helper()
	data, err := im.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBinaryRoundTrip: a decoded image re-encodes to the same bytes and
// marshals to the same JSON, so nil and empty lists and Data survive.
func TestBinaryRoundTrip(t *testing.T) {
	empty := &image.Image{Imports: []string{}, Sections: []image.Section{}}
	for _, im := range []*image.Image{sampleImage(), {}, empty} {
		data := im.EncodeBinary()
		got, err := image.DecodeBinary(data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.EncodeBinary(), data) {
			t.Fatal("decoded image re-encodes differently")
		}
		if j, want := marshal(t, got), marshal(t, im); !bytes.Equal(j, want) {
			t.Fatalf("binary round trip changed the image:\n%s\nwant\n%s", j, want)
		}
	}
	if bytes.Equal((&image.Image{}).EncodeBinary(), empty.EncodeBinary()) {
		t.Fatal("nil and empty lists encode alike")
	}
}

// TestDecodeBinaryOwnsItsBytes: section data is copied out of the payload.
func TestDecodeBinaryOwnsItsBytes(t *testing.T) {
	data := sampleImage().EncodeBinary()
	im, err := image.DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xee
	}
	if got := im.Text().Data; !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf(".text data %v after the payload was overwritten", got)
	}
}

// TestBinaryCoversEveryField: changing any one field changes the encoding,
// so a fingerprint over it tells the images apart.
func TestBinaryCoversEveryField(t *testing.T) {
	base := sampleImage().EncodeBinary()
	for name, mut := range map[string]func(*image.Image){
		"name":         func(im *image.Image) { im.Name = "prog2" },
		"entry":        func(im *image.Image) { im.Entry++ },
		"tls size":     func(im *image.Image) { im.TLSSize++ },
		"machine":      func(im *image.Image) { im.Machine = "" },
		"import":       func(im *image.Image) { im.Imports[2] = "free" },
		"nil imports":  func(im *image.Image) { im.Imports = nil },
		"section name": func(im *image.Image) { im.Sections[2].Name = ".tbss" },
		"addr":         func(im *image.Image) { im.Sections[2].Addr++ },
		"size":         func(im *image.Image) { im.Sections[2].Size++ },
		"exec":         func(im *image.Image) { im.Sections[0].Exec = false },
		"data":         func(im *image.Image) { im.Sections[0].Data[1] = 9 },
		"nil data":     func(im *image.Image) { im.Sections[1].Data = nil },
	} {
		im := sampleImage()
		mut(im)
		if bytes.Equal(im.EncodeBinary(), base) {
			t.Errorf("%s: encoding unchanged", name)
		}
	}
}

// wrappedSectionCount is a binary image with no strings or imports and a
// section count of 2^64-1.
func wrappedSectionCount() []byte {
	data := make([]byte, 49)
	data[32] = 3 // both lists non-nil
	binary.LittleEndian.PutUint64(data[41:], ^uint64(0))
	return data
}

// TestDecodeBinaryRejectsMalformed: counts and lengths past the bytes left,
// truncated fields, unknown flag bits, entries in a list flagged nil,
// trailing bytes and section geometry Unmarshal rejects are all errors.
func TestDecodeBinaryRejectsMalformed(t *testing.T) {
	good := sampleImage().EncodeBinary()
	// Byte offsets in good: entry 0, tls 8, name 16 (4 bytes), machine 28
	// (5 bytes), list flags 41, nimports 42, imports 50 (12, 8 and 14
	// bytes), nsections 84, first section 92 (name 5 bytes, addr 105,
	// size 113, flags 121, data length 122, 3 data bytes).
	with := func(off int, b ...byte) []byte {
		out := append([]byte(nil), good...)
		copy(out[off:], b)
		return out
	}
	u64 := func(x uint64) []byte { return binary.LittleEndian.AppendUint64(nil, x) }
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"empty", "truncated", nil},
		{"wrapped section count", "exceeds", wrappedSectionCount()},
		{"wrapped import count", "exceeds", with(42, u64(1<<60)...)},
		{"wrapped name length", "exceeds", with(16, u64(^uint64(0))...)},
		{"wrapped data length", "exceeds", with(122, u64(^uint64(0))...)},
		{"truncated section", "truncated", good[:len(good)-1]},
		{"no section count", "truncated", good[:84]},
		{"unknown list flag", "unknown flag bits", with(41, 0x07)},
		{"unknown section flag", "unknown flag bits", with(121, 0x83)},
		{"imports flagged nil", "flagged nil", with(41, 0x02)},
		{"data flagged nil", "flagged nil", with(121, 0x01)},
		{"trailing byte", "trailing", append(append([]byte(nil), good...), 0)},
		{"size below data", "size 2 < data 3", with(113, u64(2)...)},
		{"out of order", "out of address order", with(105, u64(image.BSSBase+0x100)...)},
		{"above heap base", "heap base", with(105, u64(image.HeapBase)...)},
	} {
		if im, err := image.DecodeBinary(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: image %+v, error %v; want an error containing %q", tc.name, im, err, tc.want)
		}
	}
}
