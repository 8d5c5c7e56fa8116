package heap

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// TestCostDocumentKeys pins the cormi-cost/3 document: exactly these
// top-level keys (fallback_funcs only when some call site fell back),
// the schema string, and a text table that names no cache.
func TestCostDocumentKeys(t *testing.T) {
	base := []string{
		"schema", "source", "wall_ns", "functions", "sccs", "components", "waves",
		"contexts", "nodes", "peak_points_to", "strong_kills", "iterations", "budget_fallbacks",
	}
	a, _ := analyzeOpts(t, sharedHelperSrc, DefaultOptions())
	withFallback := a.Cost
	withFallback.BudgetFallbacks = 2
	withFallback.FallbackFuncs = []string{"Main.mk"}
	for _, tc := range []struct {
		name string
		c    CostStats
		want []string
	}{
		{"analysis", a.Cost, base},
		{"fallback", withFallback, append(slices.Clone(base), "fallback_funcs")},
	} {
		raw, err := tc.c.JSON("x")
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		var got []string
		for k := range doc {
			got = append(got, k)
		}
		slices.Sort(got)
		want := slices.Clone(tc.want)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s: keys\n got %v\nwant %v", tc.name, got, want)
		}
		if doc["schema"] != "cormi-cost/3" || doc["source"] != "x" {
			t.Errorf("%s: schema %v source %v, want cormi-cost/3 x", tc.name, doc["schema"], doc["source"])
		}
		if text := tc.c.Format(); strings.Contains(text, "cache") {
			t.Errorf("%s: Format mentions a cache:\n%s", tc.name, text)
		}
	}
}
