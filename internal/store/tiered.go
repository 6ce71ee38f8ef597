package store

// Tiered composes a memory tier over an optional backing tier (typically
// Disk or Remote, possibly shared between owners). Gets probe memory first
// and promote backing hits into memory; Puts write through to both, so a
// fresh computation persists even if the process exits before it is reused.
//
// One Tiered serves a single project or, in the fleet daemon, every
// concurrent request alike: memory entries live as long as the Tiered, and
// only a disk backing tier has a size bound (Disk.SetMaxBytes).
type Tiered struct {
	mem  *Memory
	back Store // nil when memory-only
}

// NewTiered returns mem composed over back; back may be nil for a
// memory-only store.
func NewTiered(mem *Memory, back Store) *Tiered {
	if mem == nil {
		mem = NewMemory()
	}
	return &Tiered{mem: mem, back: back}
}

// Mem exposes the memory tier (for Len in tests and diagnostics).
func (t *Tiered) Mem() *Memory { return t.mem }

// HasBacking reports whether a backing tier is attached.
func (t *Tiered) HasBacking() bool { return t.back != nil }

// Get implements Store; tier reports which tier served the hit ("mem" or
// the backing tier's own name). On a backing hit the bytes are promoted
// into memory; the caller receives a private copy, so mutating it cannot
// corrupt the promoted entry.
func (t *Tiered) Get(ns string, key Key) ([]byte, string, bool) {
	if data, tier, ok := t.mem.Get(ns, key); ok {
		return data, tier, true
	}
	if t.back == nil {
		return nil, "", false
	}
	data, tier, ok := t.back.Get(ns, key)
	if !ok {
		return nil, "", false
	}
	t.mem.Put(ns, key, data)
	return cloneBytes(data), tier, true
}

// Put implements Store.
func (t *Tiered) Put(ns string, key Key, data []byte) {
	t.mem.Put(ns, key, data)
	if t.back != nil {
		t.back.Put(ns, key, data)
	}
}

// Stats implements Store, merging per-tier counters from both tiers.
func (t *Tiered) Stats() map[string]Counters {
	out := map[string]Counters{}
	for name, c := range t.mem.Stats() {
		cc := out[name]
		cc.Add(c)
		out[name] = cc
	}
	if t.back != nil {
		for name, c := range t.back.Stats() {
			cc := out[name]
			cc.Add(c)
			out[name] = cc
		}
	}
	return out
}
