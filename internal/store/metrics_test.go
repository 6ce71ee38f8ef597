package store_test

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestExportTierOps: seven ops per tier, each carrying its counter, and the
// sorted tier list that labels polynima_build_info.
func TestExportTierOps(t *testing.T) {
	ms := obs.NewMetricSet()
	tiers := store.ExportTierOps(ms.Counter("store_tier_ops_total", ""), map[string]store.Counters{
		"mem":  {Hits: 3, Misses: 5},
		"disk": {Hits: 1, Evictions: 2, Corrupt: 4, Errors: 6, Retries: 7, Throttled: 8},
	})
	if tiers != "disk,mem" {
		t.Fatalf("tiers = %q, want \"disk,mem\"", tiers)
	}
	var sb strings.Builder
	if err := ms.Write(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`store_tier_ops_total{tier="disk",op="hit"} 1`,
		`store_tier_ops_total{tier="disk",op="eviction"} 2`,
		`store_tier_ops_total{tier="disk",op="corrupt"} 4`,
		`store_tier_ops_total{tier="disk",op="error"} 6`,
		`store_tier_ops_total{tier="disk",op="retry"} 7`,
		`store_tier_ops_total{tier="disk",op="throttled"} 8`,
		`store_tier_ops_total{tier="mem",op="hit"} 3`,
		`store_tier_ops_total{tier="mem",op="miss"} 5`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("export missing %q", want)
		}
	}
	if n := strings.Count(text, "store_tier_ops_total{"); n != 14 {
		t.Errorf("%d samples, want 7 ops x 2 tiers", n)
	}
}
