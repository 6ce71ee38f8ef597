package image_test

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/image"
)

func TestSectionLookupAndOverlap(t *testing.T) {
	im := &image.Image{Name: "t"}
	if err := im.AddSection(image.Section{Name: ".text", Addr: 0x1000, Data: make([]byte, 16), Exec: true}); err != nil {
		t.Fatal(err)
	}
	if err := im.AddSection(image.Section{Name: ".data", Addr: 0x2000, Size: 32}); err != nil {
		t.Fatal(err)
	}
	if err := im.AddSection(image.Section{Name: ".bad", Addr: 0x1008, Size: 16}); err == nil ||
		!strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("overlap not rejected: %v", err)
	}
	if s := im.FindSection(0x100f); s == nil || s.Name != ".text" {
		t.Fatal("FindSection inside .text failed")
	}
	if s := im.FindSection(0x1010); s != nil {
		t.Fatal("FindSection past end matched")
	}
	if !im.InText(0x1000) || im.InText(0x2000) {
		t.Fatal("InText wrong")
	}
	if im.Text() == nil || im.Section(".data") == nil || im.Section(".nope") != nil {
		t.Fatal("named lookup wrong")
	}
}

func TestImportIndexStable(t *testing.T) {
	im := &image.Image{}
	a := im.ImportIndex("malloc")
	b := im.ImportIndex("free")
	if a == b || im.ImportIndex("malloc") != a || im.ImportIndex("free") != b {
		t.Fatal("import indices unstable")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	im := &image.Image{Name: "prog", Entry: 0x400000, TLSSize: 128,
		Imports: []string{"exit", "malloc"}}
	if err := im.AddSection(image.Section{Name: ".text", Addr: 0x400000,
		Data: []byte{1, 2, 3}, Exec: true}); err != nil {
		t.Fatal(err)
	}
	data, err := im.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := image.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != im.Name || got.Entry != im.Entry || got.TLSSize != im.TLSSize ||
		len(got.Sections) != 1 || len(got.Imports) != 2 {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
}

var geomText = image.Section{Name: ".text", Addr: image.TextBase, Data: []byte{1, 2, 3, 4}, Size: 4, Exec: true}

// geometryCases are section layouts, each with a fragment of the error
// Unmarshal must return for them ("" = accepted).
var geometryCases = []struct {
	name     string
	sections []image.Section
	want     string
}{
	{"well formed", []image.Section{geomText,
		{Name: ".bss", Addr: image.HeapBase - 0x1000, Size: 0x1000}}, ""},
	{"size below data", []image.Section{{Name: ".data", Addr: image.DataBase, Data: []byte{1, 2}, Size: 1}},
		"size 1 < data 2"},
	{"16 GiB bss", []image.Section{geomText, {Name: ".bss", Addr: image.BSSBase, Size: 16 << 30}},
		"heap base"},
	{"ends one past heap base", []image.Section{{Name: ".bss", Addr: image.HeapBase - 0x1000, Size: 0x1001}},
		"heap base"},
	{"above heap base", []image.Section{{Name: ".bss", Addr: image.HeapBase, Size: 8}}, "heap base"},
	{"wraps", []image.Section{{Name: ".bss", Addr: ^uint64(0) - 7, Size: 16}}, "heap base"},
	{"out of order", []image.Section{{Name: ".bss", Addr: image.BSSBase, Size: 8}, geomText},
		"out of address order"},
	{"overlap", []image.Section{geomText, {Name: ".bss", Addr: image.TextBase + 2, Size: 8}}, "overlaps"},
}

// geometryImage is the image of one geometryCases entry.
func geometryImage(name string, sections []image.Section) *image.Image {
	return &image.Image{Name: name, Entry: image.TextBase, Sections: sections}
}

// TestUnmarshalRejectsBadSectionGeometry: a serialized image may only
// declare sections that AddSection could have built below the VM heap, so
// a body of a few hundred bytes cannot make the loader map gigabytes. The
// binary decoder enforces the same rules.
func TestUnmarshalRejectsBadSectionGeometry(t *testing.T) {
	for _, tc := range geometryCases {
		im := geometryImage(tc.name, tc.sections)
		data, err := im.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		_, jerr := image.Unmarshal(data)
		_, berr := image.DecodeBinary(im.EncodeBinary())
		for _, err := range []error{jerr, berr} {
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s: rejected: %v", tc.name, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	im := &image.Image{Name: "a", Imports: []string{"x"}}
	if err := im.AddSection(image.Section{Name: ".text", Addr: 0x1000,
		Data: []byte{9}, Exec: true}); err != nil {
		t.Fatal(err)
	}
	cl := im.Clone()
	cl.Sections[0].Data[0] = 42
	cl.Imports[0] = "y"
	if im.Sections[0].Data[0] != 9 || im.Imports[0] != "x" {
		t.Fatal("clone shares backing storage")
	}
}

func TestFindSectionProperty(t *testing.T) {
	im := &image.Image{}
	if err := im.AddSection(image.Section{Name: ".a", Addr: 100, Size: 50}); err != nil {
		t.Fatal(err)
	}
	if err := im.AddSection(image.Section{Name: ".b", Addr: 200, Size: 50}); err != nil {
		t.Fatal(err)
	}
	f := func(addr uint16) bool {
		a := uint64(addr)
		s := im.FindSection(a)
		inA := a >= 100 && a < 150
		inB := a >= 200 && a < 250
		switch {
		case inA:
			return s != nil && s.Name == ".a"
		case inB:
			return s != nil && s.Name == ".b"
		default:
			return s == nil
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
