package store_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// TestMemoryGetAliasing is the mutation-aliasing regression test: a caller
// mutating the slice it got back must never corrupt the cached entry —
// fatal once the memory tier is shared across daemon requests.
func TestMemoryGetAliasing(t *testing.T) {
	m := store.NewMemory()
	k := store.KeyOf([]byte("k"))
	m.Put("f", k, []byte("pristine"))

	got, _, ok := m.Get("f", k)
	if !ok {
		t.Fatal("miss")
	}
	for i := range got {
		got[i] = 'X'
	}
	again, _, ok := m.Get("f", k)
	if !ok || string(again) != "pristine" {
		t.Fatalf("cached entry corrupted by caller mutation: %q", again)
	}
}

// TestTieredPromoteAliasing covers the promotion path: after a backing hit
// is promoted into memory, mutating the returned slice must not corrupt the
// promoted entry.
func TestTieredPromoteAliasing(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := store.KeyOf([]byte("k"))
	disk.Put("img", k, []byte("pristine"))

	ts := store.NewTiered(store.NewMemory(), disk)
	got, tier, ok := ts.Get("img", k)
	if !ok || tier != "disk" {
		t.Fatalf("Get = %q, %v, want disk hit", tier, ok)
	}
	for i := range got {
		got[i] = 'X'
	}
	again, tier, ok := ts.Get("img", k)
	if !ok || tier != "mem" || string(again) != "pristine" {
		t.Fatalf("promoted entry corrupted: %q (tier %q, ok %v)", again, tier, ok)
	}
}

// TestDiskGetErrorIsCountedDistinctly: a real I/O failure (here: the entry
// path is a directory, so ReadFile fails with EISDIR) must count under
// Errors as well as Misses, so operational problems are distinguishable
// from cold entries.
func TestDiskGetErrorIsCountedDistinctly(t *testing.T) {
	d, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := store.KeyOf([]byte("k"))
	hex := k.Hex()
	// Plant a directory where the entry file would live.
	p := filepath.Join(d.Dir(), "v1", "func", hex[:2], hex)
	if err := os.MkdirAll(p, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d.Get("func", k); ok {
		t.Fatal("hit on unreadable entry")
	}
	// A plain cold key stays a plain miss.
	if _, _, ok := d.Get("func", store.KeyOf([]byte("cold"))); ok {
		t.Fatal("hit on cold key")
	}
	st := d.Stats()["disk"]
	if st.Misses != 2 || st.Errors != 1 {
		t.Fatalf("counters = %+v, want 2 misses / 1 error", st)
	}
}

// TestDiskPruning: with a size limit set, the tier prunes its
// least-recently-modified entries back under the limit instead of growing
// monotonically.
func TestDiskPruning(t *testing.T) {
	d, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xab}, 1024)
	// Each entry is frame header (48B) + 1KiB; limit to ~8 entries.
	d.SetMaxBytes(8 * 1100)

	keys := make([]store.Key, 32)
	for i := range keys {
		keys[i] = store.KeyOf([]byte(fmt.Sprintf("entry-%d", i)))
		d.Put("func", keys[i], payload)
		// Backdate older entries so mtime ordering is deterministic even on
		// coarse-mtime filesystems.
		mt := time.Now().Add(time.Duration(i-len(keys)) * time.Minute)
		hex := keys[i].Hex()
		os.Chtimes(filepath.Join(d.Dir(), "v1", "func", hex[:2], hex), mt, mt)
	}

	var total int64
	filepath.Walk(d.Dir(), func(p string, info os.FileInfo, err error) error {
		if err == nil && info != nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	if total > 8*1100 {
		t.Fatalf("store holds %d bytes after pruning, limit %d", total, 8*1100)
	}
	st := d.Stats()["disk"]
	if st.Evictions == 0 {
		t.Fatalf("counters = %+v, want evictions > 0", st)
	}
	// The newest entry must have survived; pruned entries read as plain
	// misses and can be rewritten.
	if _, _, ok := d.Get("func", keys[len(keys)-1]); !ok {
		t.Fatal("newest entry was pruned")
	}
	if _, _, ok := d.Get("func", keys[0]); ok {
		t.Fatal("oldest entry survived pruning past the limit")
	}
	d.Put("func", keys[0], payload)
	if data, _, ok := d.Get("func", keys[0]); !ok || !bytes.Equal(data, payload) {
		t.Fatal("rewrite after pruning failed")
	}
}

// TestTieredSharedConcurrent exercises one Tiered shared by many
// goroutines across namespaces — Put, Get and promotion from disk all
// interleaving, the fleet daemon's shape. Run under -race in CI; correctness
// here means every hit returns exactly the bytes put under that key.
func TestTieredSharedConcurrent(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := store.NewTiered(store.NewMemory(), disk)
	namespaces := []string{"cfg", "func", "image"}

	value := func(ns string, i int) []byte {
		return []byte(fmt.Sprintf("%s/value-%d", ns, i))
	}
	key := func(ns string, i int) store.Key {
		return store.KeyOf([]byte(ns), store.U64(uint64(i)))
	}

	const workers = 8
	const keysPerNS = 24
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for op := 0; op < 400; op++ {
				ns := namespaces[rng.Intn(len(namespaces))]
				i := rng.Intn(keysPerNS)
				switch rng.Intn(4) {
				case 0:
					ts.Put(ns, key(ns, i), value(ns, i))
				default:
					if data, _, ok := ts.Get(ns, key(ns, i)); ok {
						if !bytes.Equal(data, value(ns, i)) {
							t.Errorf("corrupted read: ns %s key %d = %q", ns, i, data)
							return
						}
						// Exercise the aliasing hardening under load.
						for j := range data {
							data[j] = 0
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// After the dust settles every key that was ever put must read back
	// exactly, whichever tier serves it.
	for _, ns := range namespaces {
		for i := 0; i < keysPerNS; i++ {
			if data, _, ok := ts.Get(ns, key(ns, i)); ok && !bytes.Equal(data, value(ns, i)) {
				t.Fatalf("post-run corrupted read: ns %s key %d = %q", ns, i, data)
			}
		}
	}
}

// TestChainProbesInOrderAndWritesThrough covers the composite backing tier
// used when a local disk fronts a shared remote store.
func TestChainProbesInOrderAndWritesThrough(t *testing.T) {
	d1, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ch := store.NewChain(nil, d1, d2)
	k := store.KeyOf([]byte("k"))
	ch.Put("f", k, []byte("v"))
	// Both tiers hold the entry; the first serves it.
	if _, _, ok := d2.Get("f", k); !ok {
		t.Fatal("write-through skipped the second tier")
	}
	if data, tier, ok := ch.Get("f", k); !ok || tier != "disk" || string(data) != "v" {
		t.Fatalf("Get = %q, %q, %v", data, tier, ok)
	}
	// Degenerate compositions.
	if store.NewChain(nil, nil) != nil {
		t.Fatal("empty chain should be nil")
	}
	if got := store.NewChain(nil, d1); got != store.Store(d1) {
		t.Fatal("single-tier chain should be the tier itself")
	}
}
