package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
)

func TestKeyOfFraming(t *testing.T) {
	// Length framing: moving a byte across a part boundary changes the key.
	a := store.KeyOf([]byte("ab"), []byte("c"))
	b := store.KeyOf([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("KeyOf collides across part boundaries")
	}
	if a != store.KeyOf([]byte("ab"), []byte("c")) {
		t.Fatal("KeyOf is not deterministic")
	}
	if len(a.Hex()) != 64 {
		t.Fatalf("Hex length = %d, want 64", len(a.Hex()))
	}
}

func TestMemoryNamespacesAreDisjoint(t *testing.T) {
	m := store.NewMemory()
	k := store.KeyOf([]byte("x"))
	m.Put("a", k, []byte("in-a"))
	if _, _, ok := m.Get("b", k); ok {
		t.Fatal("key leaked across namespaces")
	}
	if data, tier, ok := m.Get("a", k); !ok || tier != "mem" || string(data) != "in-a" {
		t.Fatalf("Get(a) = %q, %q, %v", data, tier, ok)
	}
	// Entries live as long as the tier: a later read still hits.
	if _, _, ok := m.Get("a", k); !ok {
		t.Fatal("entry gone on second read")
	}
	if m.Len("a") != 1 || m.Len("b") != 0 {
		t.Fatalf("Len(a), Len(b) = %d, %d, want 1, 0", m.Len("a"), m.Len("b"))
	}
	st := m.Stats()["mem"]
	if st.Hits != 2 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("counters = %+v, want 2 hits / 1 miss / 0 evictions", st)
	}
}

func TestDiskRoundTripAndLayout(t *testing.T) {
	d, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := store.KeyOf([]byte("payload"))
	want := []byte("the artifact bytes")
	d.Put("func", k, want)
	got, tier, ok := d.Get("func", k)
	if !ok || tier != "disk" || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %q, %v", got, tier, ok)
	}
	// Versioned, sharded layout: dir/v1/<ns>/<hex2>/<hexkey>.
	p := filepath.Join(d.Dir(), "v1", "func", k.Hex()[:2], k.Hex())
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("entry not at expected path %s: %v", p, err)
	}
	// Absent key: a plain miss, not corruption.
	if _, _, ok := d.Get("func", store.KeyOf([]byte("other"))); ok {
		t.Fatal("hit on absent key")
	}
	st := d.Stats()["disk"]
	if st.Hits != 1 || st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("counters = %+v, want 1 hit / 1 miss / 0 corrupt", st)
	}
}

// TestDiskCorruptionIsACountedMiss pins the acceptance criterion: a
// truncated entry, a flipped payload byte, and a wrong version/magic prefix
// each degrade to a counted miss — never an error, never stale data.
func TestDiskCorruptionIsACountedMiss(t *testing.T) {
	corruptions := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"short-header", func(b []byte) []byte { return b[:10] }},
		{"flipped-payload-byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0xff
			return c
		}},
		{"wrong-version-prefix", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c, "PNSTORE9")
			return c
		}},
		{"trailing-garbage", func(b []byte) []byte { return append(append([]byte(nil), b...), 0xcc) }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			d, err := store.OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			k := store.KeyOf([]byte(tc.name))
			d.Put("func", k, []byte("good bytes"))
			p := filepath.Join(d.Dir(), "v1", "func", k.Hex()[:2], k.Hex())
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, tc.mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := d.Get("func", k); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			st := d.Stats()["disk"]
			if st.Corrupt != 1 || st.Misses != 1 {
				t.Fatalf("counters = %+v, want 1 corrupt / 1 miss", st)
			}
			// The bad entry is dropped, so a rewrite restores service.
			d.Put("func", k, []byte("good bytes"))
			if got, _, ok := d.Get("func", k); !ok || string(got) != "good bytes" {
				t.Fatalf("rewrite after corruption: Get = %q, %v", got, ok)
			}
		})
	}
}

func TestTieredPromotionAndWriteThrough(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := store.NewTiered(store.NewMemory(), disk)
	k := store.KeyOf([]byte("k"))
	ts.Put("img", k, []byte("v"))

	// Write-through: a second Tiered over the same disk sees the entry,
	// first from disk, then (promoted) from memory.
	ts2 := store.NewTiered(store.NewMemory(), disk)
	if _, tier, ok := ts2.Get("img", k); !ok || tier != "disk" {
		t.Fatalf("first Get tier = %q, %v, want disk hit", tier, ok)
	}
	if _, tier, ok := ts2.Get("img", k); !ok || tier != "mem" {
		t.Fatalf("second Get tier = %q, %v, want mem hit (promoted)", tier, ok)
	}
	st := ts2.Stats()
	if st["mem"].Hits != 1 || st["mem"].Misses != 1 {
		t.Fatalf("mem counters = %+v", st["mem"])
	}
	if st["disk"].Hits < 1 {
		t.Fatalf("disk counters = %+v", st["disk"])
	}
}

func TestTieredMemoryOnly(t *testing.T) {
	ts := store.NewTiered(nil, nil)
	k := store.KeyOf([]byte("k"))
	if _, _, ok := ts.Get("x", k); ok {
		t.Fatal("hit on empty store")
	}
	ts.Put("x", k, []byte("v"))
	if data, tier, ok := ts.Get("x", k); !ok || tier != "mem" || string(data) != "v" {
		t.Fatalf("Get = %q, %q, %v", data, tier, ok)
	}
	if _, ok := ts.Stats()["disk"]; ok {
		t.Fatal("memory-only store reports a disk tier")
	}
}

// TestOpenBacking covers the CLIs' backing-store flags: nothing set means
// memory only, -store alone is the disk tier, both chain disk before
// remote, and a bad remote URL or disk root fails up front.
func TestOpenBacking(t *testing.T) {
	if b, err := store.OpenBacking("", 0, "", store.RemoteOptions{}); b != nil || err != nil {
		t.Fatalf("no flags: %v, %v; want nil, nil", b, err)
	}
	dir := t.TempDir()
	b, err := store.OpenBacking(dir, 1, "", store.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := b.(*store.Disk); !ok || d.Dir() != dir {
		t.Fatalf("-store alone: got %T, want the disk tier at %s", b, dir)
	}
	b, err = store.OpenBacking(dir, 0, "http://127.0.0.1:1", store.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	_, disk := st["disk"]
	_, remote := st["remote"]
	if !disk || !remote || len(st) != 2 {
		t.Fatalf("-store and -remote-store: tiers %v, want disk and remote", st)
	}
	if _, err := store.OpenBacking("", 0, "ftp://host", store.RemoteOptions{}); err == nil {
		t.Fatal("bad remote scheme accepted")
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.OpenBacking(file, 0, "", store.RemoteOptions{}); err == nil || !strings.HasPrefix(err.Error(), "store: ") {
		t.Fatalf("disk root under a file: err %v, want a store: error", err)
	}
}
