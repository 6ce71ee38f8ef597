// Package store is the tiered content-addressed artifact store behind the
// staged recompilation pipeline (internal/core).
//
// Every pipeline stage declares a typed artifact — the static CFG, an ICFT
// trace merge, a lifted+optimized function body, the final lowered image —
// and a sha256 fingerprint over that artifact's full input set. The
// fingerprint is the store key: artifacts are content-addressed, so
// invalidation is implicit (a changed input hashes to a new key and the
// stale entry simply stops being referenced).
//
// Three tiers implement the Store interface:
//
//   - Memory (mem.go): a process-local map — the generalization of core's
//     original content-addressed function cache. Each core.Project owns one
//     unless it runs over the fleet daemon's; entries live as long as the
//     tier that holds them.
//   - Disk (disk.go): a persistent tier under a versioned key namespace,
//     written atomically (temp file + rename, atomic.go). Any corrupt,
//     short, or version-mismatched entry is treated as a miss and counted —
//     never surfaced as an error and never able to produce a wrong output,
//     because payloads are checksummed and artifacts are content-addressed.
//     An optional size limit prunes its oldest entries.
//   - Remote (remote.go): a polynimad store service over HTTP, with the
//     same degrade-to-a-counted-miss contract.
//
// Tiered (tiered.go) composes a memory tier over an optional backing tier
// and promotes backing hits into memory; OpenBacking (backing.go) builds
// the disk-over-remote backing the CLIs' flags describe. The determinism
// contract (DESIGN.md §3): recompiled bytes are identical whether an
// artifact is recomputed, replayed from memory, or replayed from disk.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Key is a content-address: a sha256 fingerprint over an artifact's full
// input set.
type Key [32]byte

// Hex renders the key for paths and diagnostics.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// KeyOf hashes the parts in order into a Key. Each part is framed by its
// length, so distinct part boundaries can never collide by concatenation.
func KeyOf(parts ...[]byte) Key {
	h := sha256.New()
	var w [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(w[:], uint64(len(p)))
		h.Write(w[:])
		h.Write(p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// U64 renders x as a little-endian KeyOf part.
func U64(x uint64) []byte {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], x)
	return w[:]
}

// Counters is a point-in-time snapshot of one tier's outcome counts.
type Counters struct {
	Hits      int64 // Get served from this tier
	Misses    int64 // Get that this tier could not serve
	Evictions int64 // entries dropped by the disk tier's size limit
	Corrupt   int64 // entries rejected as corrupt/short/checksum-mismatched
	Errors    int64 // I/O or transport errors swallowed (degraded to misses / dropped writes)
	Retries   int64 // remote-tier request attempts beyond the first
	Throttled int64 // remote-tier requests shed by the server (429), retried after backoff
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Evictions += o.Evictions
	c.Corrupt += o.Corrupt
	c.Errors += o.Errors
	c.Retries += o.Retries
	c.Throttled += o.Throttled
}

// Store is a content-addressed blob store. Namespaces separate artifact
// types (one encoding schema each); ns must be non-empty and match
// [A-Za-z0-9._-]+ so it can double as a directory name (and a URL path
// segment, remote.go).
//
// Get returns the stored bytes, the name of the tier that served them
// ("mem", "disk", "remote"), and whether the key was present. The returned
// slice is the caller's to use: tiers that retain internal buffers (the
// memory tier) hand out a private copy, so mutating it can never corrupt a
// later read. Put stores data under (ns, key); the store takes ownership of
// the slice, so the caller must not mutate it afterwards. Puts are
// best-effort: a tier that cannot persist (I/O error, remote outage) counts
// the failure and stays usable.
type Store interface {
	Get(ns string, key Key) (data []byte, tier string, ok bool)
	Put(ns string, key Key, data []byte)
	// Stats returns per-tier counter snapshots, keyed by tier name.
	Stats() map[string]Counters
}

// cloneBytes returns a private copy of b (nil stays nil).
func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp
}
