package store

import (
	"sync"
	"time"
)

// Memory is the in-process store tier: a content-addressed map whose
// entries live as long as the tier. It generalizes core's original function
// cache. A project's private tier lives as long as the project; the fleet
// daemon's lives as long as the daemon and is unbounded (Disk.SetMaxBytes
// bounds only the persistent tier).
//
// Memory is safe for concurrent use.
type Memory struct {
	lat     LatencyObserver // construction-time seam; see SetLatencyObserver
	mu      sync.Mutex
	entries map[memKey][]byte
	c       Counters
}

// memKey names one entry: one map over every namespace costs a fresh
// project's tier one allocation, not one per namespace it touches.
type memKey struct {
	ns  string
	key Key
}

// NewMemory returns an empty memory tier.
func NewMemory() *Memory {
	return &Memory{entries: map[memKey][]byte{}}
}

// Len reports the number of entries in namespace ns (tests, diagnostics:
// it walks every entry).
func (m *Memory) Len(ns string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for k := range m.entries {
		if k.ns == ns {
			n++
		}
	}
	return n
}

// Get implements Store. The returned slice is a private copy: the tier's
// internal buffer is never handed out, so a caller that mutates what it got
// back cannot corrupt the entry for every later reader — essential once one
// memory tier is shared across daemon requests.
func (m *Memory) Get(ns string, key Key) ([]byte, string, bool) {
	if m.lat != nil {
		defer observeSince(m.lat, "mem", "get", time.Now())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.entries[memKey{ns, key}]
	if !ok {
		m.c.Misses++
		return nil, "", false
	}
	m.c.Hits++
	return cloneBytes(data), "mem", true
}

// Put implements Store.
func (m *Memory) Put(ns string, key Key, data []byte) {
	if m.lat != nil {
		defer observeSince(m.lat, "mem", "put", time.Now())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries[memKey{ns, key}] = data
}

// SetLatencyObserver implements LatencyObservable. Install before the tier
// serves traffic (the observer is read without synchronization in Get/Put).
func (m *Memory) SetLatencyObserver(obs LatencyObserver) { m.lat = obs }

// Stats implements Store.
func (m *Memory) Stats() map[string]Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return map[string]Counters{"mem": m.c}
}
