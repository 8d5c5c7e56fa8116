package harness

import (
	"strings"
	"testing"
	"time"

	"cormi/internal/obs"
)

// The acceptance scenario for cluster-wide attribution: three nodes,
// one slow executor, aggregated over real HTTP. The merged row must
// carry every node's calls, monotone quantiles, blame shifted to
// execute by the slow node, and at least one captured exemplar.
func TestRunAttribBlamesSlowExecutor(t *testing.T) {
	spec := attribSpec{Nodes: 3, Sends: 16, SlowNode: 2, SlowDelay: time.Millisecond, Spikes: 2, Warmup: 6}
	rows, err := runAttrib(spec)
	if err != nil {
		t.Fatal(err)
	}
	var row *obs.ClusterSite
	for i := range rows {
		if rows[i].Site == attribSite {
			row = &rows[i]
		}
	}
	if row == nil {
		t.Fatalf("no %s row in %+v", attribSite, rows)
	}
	if want := uint64(spec.Nodes * spec.Sends); row.Calls != want {
		t.Errorf("merged calls = %d, want %d", row.Calls, want)
	}
	if row.P50NS <= 0 || row.P50NS > row.P95NS || row.P95NS > row.P99NS {
		t.Errorf("quantiles not monotone: p50=%d p95=%d p99=%d", row.P50NS, row.P95NS, row.P99NS)
	}
	// The slow node's 10x spikes put the cluster p99 at sleep scale.
	if row.P99NS < int64(spec.SlowDelay) {
		t.Errorf("cluster p99 = %dns, below the slow executor's %v sleep", row.P99NS, spec.SlowDelay)
	}
	if row.TopBlame != "execute" {
		t.Errorf("top blame = %q (share %.2f), want execute", row.TopBlame, row.TopBlameShare)
	}
	if row.TopBlameShare <= 0.5 {
		t.Errorf("execute blame share = %.2f, want dominant (> 0.5)", row.TopBlameShare)
	}
	if row.Exemplars < 1 {
		t.Errorf("exemplars = %d, want >= 1 (spikes cross the armed threshold)", row.Exemplars)
	}

	out := formatAttrib(rows)
	t.Logf("merged attribution table:\n%s", out)
	for _, want := range []string{attribSite, "top_blame", "execute"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatAttrib missing %q:\n%s", want, out)
		}
	}
}
