package harness

import (
	"strconv"
	"strings"
	"testing"

	"cormi/internal/testkit"
	"cormi/internal/trace"
)

// TestDTraceChainReconstructsTreePerCall is the acceptance check for
// DESIGN.md §15: synchronous depth-8 chains across three traced nodes
// reconstruct — over the production /traces pull path — as exactly one
// tree per call, with the span and hop counts the topology implies and
// critical paths accounting for the measured wall time.
func TestDTraceChainReconstructsTreePerCall(t *testing.T) {
	checkDTrace(t, DefaultDTraceSpec())
}

// TestDTraceChainsOutgrowTraceStore: `rmibench -chain 90` samples 270
// traces, more than the 256 a trace store retains. Each chain is
// verified as it completes, so every trace is still checked whole.
func TestDTraceChainsOutgrowTraceStore(t *testing.T) {
	spec := DefaultDTraceSpec()
	spec.Depth = 90
	if spec.Chains*spec.Depth <= trace.MaxTraces {
		t.Fatalf("%d traces fit one store; the test needs more", spec.Chains*spec.Depth)
	}
	checkDTrace(t, spec)
}

// TestDTraceRejectsChainPastStore: one chain longer than a store holds
// cannot be verified whole, so it is refused up front, naming the cap.
func TestDTraceRejectsChainPastStore(t *testing.T) {
	spec := DefaultDTraceSpec()
	spec.Depth = trace.MaxTraces + 1
	_, err := RunDTrace(spec)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(trace.MaxTraces)) {
		t.Fatalf("depth %d: err = %v, want a refusal naming the store's cap %d", spec.Depth, err, trace.MaxTraces)
	}
}

// checkDTrace runs the scenario at spec and asserts its tree facts.
func checkDTrace(t *testing.T, spec DTraceSpec) {
	t.Helper()
	rep, err := RunDTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	row := &rep.Rows[0]
	t.Logf("dtrace row: %+v", row)
	if want := spec.Chains * spec.Depth; row.Traces != want {
		t.Errorf("sampled %d traces, want %d (one per call)", row.Traces, want)
	}
	if row.Roots != 1 {
		t.Errorf("reconstructed tree has %d roots, want exactly 1", row.Roots)
	}
	// One chain link is four spans: caller+callee for the step call,
	// caller+callee for the nested leaf call.
	if row.SpansPerTrace != 4 {
		t.Errorf("%d spans per trace, want 4 (caller+callee for step and leaf)", row.SpansPerTrace)
	}
	if row.MaxHop != 2 {
		t.Errorf("max hop %d, want 2 (node0 -> node1 -> node2)", row.MaxHop)
	}
	if row.Orphans != 0 {
		t.Errorf("%d orphan spans, want none", row.Orphans)
	}
	if row.Duplicates != 0 {
		t.Errorf("%d duplicate spans, want none", row.Duplicates)
	}
	if row.CriticalPathNS <= 0 || row.CriticalPathNS > row.EndToEndNS {
		t.Errorf("critical path %dns outside (0, end-to-end %dns]",
			row.CriticalPathNS, row.EndToEndNS)
	}
	// The chain's cost is real executor sleeps, so the reconstructed
	// critical paths must account for the caller's measured wall time.
	// Race instrumentation inflates the untraced overhead between the
	// sleeps, so the tight bound applies only to the plain build.
	lo := 0.90
	if testkit.Enabled {
		lo = 0.60
	}
	if row.CriticalPathRatio < lo || row.CriticalPathRatio > 1.05 {
		t.Errorf("critical path is %.3f of measured wall time, want within [%.2f, 1.05]",
			row.CriticalPathRatio, lo)
	}
}
