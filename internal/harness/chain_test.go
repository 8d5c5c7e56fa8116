package harness

import (
	"math"
	"sync"
	"testing"
)

// chainRun is the depth-8 chain table, run once for the gate below and
// the renderer golden (report_test.go).
var chainRun = sync.OnceValues(func() (*Report, error) { return RunChain(8, 100) })

// TestChainModes pins the promise-pipelining result on the depth-8
// chain. Latencies are simtime virtual nanoseconds, a function of the
// protocol and the cost model alone, so they are asserted exactly: the
// capability-demoted async mode costs what sync does and counts one
// fallback per dependent call, and pipelining collapses the chain to
// one round trip.
func TestChainModes(t *testing.T) {
	const depth, chains = 8, 100
	rep, err := chainRun()
	if err != nil {
		t.Fatal(err)
	}
	rows := rep.Rows
	want := []struct {
		mode      ChainMode
		latencyNS int64
		fallbacks int64
	}{
		{ChainSync, 327824, 0},
		{ChainAsync, 327824, chains * (depth - 1)},
		{ChainPipelined, 44478, 0},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.Mode != string(w.mode) {
			t.Fatalf("row %d is mode %q, want %q", i, r.Mode, w.mode)
		}
		if r.ChainLatencyNS != w.latencyNS {
			t.Errorf("%s: chain latency %dns, want %d", r.Mode, r.ChainLatencyNS, w.latencyNS)
		}
		if r.Stats.PipelineFallbacks != w.fallbacks {
			t.Errorf("%s: %d pipeline fallbacks, want %d", r.Mode, r.Stats.PipelineFallbacks, w.fallbacks)
		}
		// Only a chain's last future is awaited, so the counter can be
		// read before the final chain's other replies are sent:
		// request/response traffic reads 1.999-2.000, not exactly 2.
		if math.Abs(r.FramesPerOp-2) > 0.02 {
			t.Errorf("%s: %.3f frames/op, want within 1%% of 2", r.Mode, r.FramesPerOp)
		}
	}
	sync, piped := rows[0], rows[2]
	if 2*piped.ChainLatencyNS > sync.ChainLatencyNS {
		t.Errorf("pipelined latency %dns exceeds half of sync %dns",
			piped.ChainLatencyNS, sync.ChainLatencyNS)
	}
}
