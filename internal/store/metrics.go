package store

import (
	"sort"
	"strings"

	"repro/internal/obs"
)

// ExportTierOps sets the store_tier_ops_total samples on ops from per-tier
// counters st, seven ops per tier, and returns the tier names sorted and
// comma-joined: the store_tiers label of polynima_build_info. polybench's
// -metrics file and polynimad's /metrics both render through it.
func ExportTierOps(ops *obs.Metric, st map[string]Counters) string {
	tiers := make([]string, 0, len(st))
	for tier := range st {
		tiers = append(tiers, tier)
	}
	sort.Strings(tiers)
	for _, tier := range tiers {
		c := st[tier]
		l := obs.Label{Key: "tier", Val: tier}
		ops.Set(float64(c.Hits), l, obs.Label{Key: "op", Val: "hit"})
		ops.Set(float64(c.Misses), l, obs.Label{Key: "op", Val: "miss"})
		ops.Set(float64(c.Evictions), l, obs.Label{Key: "op", Val: "eviction"})
		ops.Set(float64(c.Corrupt), l, obs.Label{Key: "op", Val: "corrupt"})
		ops.Set(float64(c.Errors), l, obs.Label{Key: "op", Val: "error"})
		ops.Set(float64(c.Retries), l, obs.Label{Key: "op", Val: "retry"})
		ops.Set(float64(c.Throttled), l, obs.Label{Key: "op", Val: "throttled"})
	}
	return strings.Join(tiers, ",")
}
