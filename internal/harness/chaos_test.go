package harness

import (
	"sync"
	"testing"
)

// chaosScale is a reduced workload: fault recovery costs real time (a
// lost frame is only recovered after a deadline expiry), so the chaos
// matrix runs smaller problems than TestScale.
func chaosScale() Scale {
	s := TestScale()
	s.ListIters = 15
	s.ArrayIters = 15
	s.LUN, s.LUBS = 64, 16
	return s
}

// chaosRun is the chaos report of the fixed seed, run once for the
// gate below and the renderer golden (report_test.go).
var chaosRun = sync.OnceValues(func() (*Report, error) { return Chaos(chaosScale(), DefaultChaosSpec(42)) })

// TestChaosAllLevels is the acceptance gate for the fault-tolerance
// layer: the LU and micro apps complete with correct results under
// seeded drop+dup+reorder+corrupt at all five optimization levels, and
// no user method body is executed more than once per logical call.
func TestChaosAllLevels(t *testing.T) {
	report, err := chaosRun()
	if err != nil {
		t.Fatalf("chaos run failed: %v\n%s", err, report.Format())
	}
	// The fault mix must actually have exercised the recovery paths
	// somewhere in the matrix — otherwise this test proves nothing.
	var retries, dups, corrupt, claims int64
	for _, row := range report.Rows {
		retries += row.Stats.Retries
		dups += row.Stats.DupSuppressed
		corrupt += row.Stats.CorruptDropped
		claims += row.Stats.ClaimChecks
		// The audit layer's acceptance criterion: with the claim
		// checker sampling under chaos, no compile-time claim (elided
		// cycle check, reuse-cache shape) may be caught violated.
		if row.Stats.ClaimViolations != 0 {
			t.Errorf("%s @ %s: %d claim violations under chaos",
				row.App, row.Level, row.Stats.ClaimViolations)
		}
	}
	if claims == 0 {
		t.Error("no claim checks ran; ClaimCheck sampling seems inert")
	}
	if retries == 0 {
		t.Error("no retransmissions occurred; fault injection seems inert")
	}
	if dups == 0 {
		t.Error("no duplicates suppressed; dedup path not exercised")
	}
	if corrupt == 0 {
		t.Error("no corrupt frames dropped; checksum path not exercised")
	}
	t.Logf("\n%s", report.Format())
}
