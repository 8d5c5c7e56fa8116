package harness

import (
	"math"
	"sync"
	"testing"
)

// chainRun is the depth-8 chain table, run once for the gate below and
// the renderer golden (report_test.go).
var chainRun = sync.OnceValues(func() (*Report, error) { return RunChain(8, 100) })

// TestChainModes pins the depth-8 chain's virtual latency. Latencies
// are simtime virtual nanoseconds, a function of the protocol and the
// cost model alone, so the sync row is asserted exactly, with its
// request/response traffic of two frames per call.
func TestChainModes(t *testing.T) {
	rep, err := chainRun()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rep.Rows))
	}
	r := rep.Rows[0]
	if r.Mode != string(ChainSync) {
		t.Fatalf("row is mode %q, want %q", r.Mode, ChainSync)
	}
	if r.ChainLatencyNS != 327824 {
		t.Errorf("%s: chain latency %dns, want 327824", r.Mode, r.ChainLatencyNS)
	}
	if math.Abs(r.FramesPerOp-2) > 0.02 {
		t.Errorf("%s: %.3f frames/op, want within 1%% of 2", r.Mode, r.FramesPerOp)
	}
}
