package harness

import (
	"testing"
	"time"

	"cormi/internal/rmi"
)

// matrixSpec is the matrix's fault mix: DefaultChaosSpec's rates with a
// 10 ms per-attempt deadline. A chain call takes microseconds, so the
// deadline only paces recovery from a lost frame, and the matrix has
// 150 lossy cells to get through.
func matrixSpec() ChaosSpec {
	spec := DefaultChaosSpec(42)
	spec.Policy.Timeout = 10 * time.Millisecond
	return spec
}

// matrixConditions are the six link conditions of the mode matrix.
func matrixConditions() []Condition {
	faulty := Faulty(matrixSpec())
	return []Condition{Clean, TCP, faulty, Both(TCP, faulty), Skew(1), Both(Skew(1), faulty)}
}

// TestModeMatrix is the gate for "all call modes × optimization levels
// × transports compute the same answers; resources balanced at Close":
// both chain workloads × six link conditions × five levels × three call
// modes. runGrid holds every cell to the workload's own witness (chain
// results, exactly-once execution), to the negotiation evidence of its
// condition, to the answer of the
// workload's first cell — {class, clean channel, sync} — and to the
// Close-balance check.
func TestModeMatrix(t *testing.T) {
	const depth, chains = 5, 6
	start := time.Now()
	workloads := append(chainWorkloads(intChain, AllChainModes, depth, chains),
		chainWorkloads(listChain, AllChainModes, depth, chains)...)
	rep := &Report{Cols: []Column[Row]{appCol, levelCol,
		{"condition", -12, "%s", func(r *Row) any { return r.Cond }},
		{"mode", -10, "%s", func(r *Row) any { return r.Mode }},
		resultCol}}
	_ = runGrid(rep, Scale{Nodes: 2}, workloads, matrixConditions(), rmi.AllLevels)
	failed := 0
	for i := range rep.Rows {
		if r := &rep.Rows[i]; r.Err != nil {
			failed++
			t.Errorf("%s: %v", r.Cell(), r.Err)
		}
	}
	if want := 2 * 6 * len(rmi.AllLevels) * len(AllChainModes); len(rep.Rows) != want {
		t.Errorf("ran %d cells, want %d", len(rep.Rows), want)
	}
	t.Logf("mode matrix: %d cells, %d failed, %.1fs", len(rep.Rows), failed, time.Since(start).Seconds())
}
