package harness

// The scenario table (DESIGN.md §7). A cell is a Workload run at an
// optimization level under a link Condition (a chain workload also in a
// ChainMode, chain.go). runGrid runs a selection of cells and ends each
// the same way: the workload's witness, the negotiation evidence, the
// answer against the workload's first cell, the Close-balance check.

import (
	"fmt"
	"time"

	"cormi/internal/apps/appkit"
	"cormi/internal/apps/lu"
	"cormi/internal/apps/micro"
	"cormi/internal/apps/superopt"
	"cormi/internal/apps/webserver"
	"cormi/internal/balance"
	"cormi/internal/rmi"
	"cormi/internal/trace"
	"cormi/internal/transport"
)

// Workload is one program of the table. Run builds its own cluster
// from the condition's options, runs to completion at the given level,
// closes the cluster and returns what it measured; it owns its witness
// (LU's residual, the list length the receiver saw, exactly-once
// execution, a chain's result) and fails when that does not hold.
type Workload struct {
	Name string
	// Mode is the chain mode of a chain workload, empty otherwise.
	Mode ChainMode
	// Objects says the workload ships object graphs, so plan
	// negotiation has something to demote; an int chain ships no class.
	Objects bool
	Run     func(level rmi.OptLevel, s Scale, opts []rmi.Option) (Outcome, error)
}

// Condition is what the interconnect does to a cell. Options turns it
// into cluster options for the row-th cell of a run; Skewed says one
// node advertises another program version's plan fingerprints, which
// the finished row must show (checkNegotiation).
type Condition struct {
	Name    string
	Options func(row int, s Scale) ([]rmi.Option, error)
	Skewed  bool
}

// runGrid appends one row per (workload, condition, level), in that
// nesting, to rep, and returns the first failure.
func runGrid(rep *Report, s Scale, workloads []Workload, conds []Condition, levels []rmi.OptLevel) error {
	first := make(map[string]string) // workload name -> its first cell's answer
	for i := range workloads {
		w := &workloads[i]
		for _, cond := range conds {
			for _, level := range levels {
				row := runCell(w, cond, level, s, len(rep.Rows))
				ref, seen := first[w.Name]
				if row.Err == nil && !seen {
					first[w.Name] = row.Answer
				} else if row.Err == nil && row.Answer != ref {
					row.Err = fmt.Errorf("answer %q differs from the workload's first cell's %q", row.Answer, ref)
				}
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	return rep.Failed()
}

// runCell runs one cell. A cell that ran is then held to the balance
// check: frames, read contexts and goroutines back where they were
// before it started and the closed cluster's backlog gauges at zero.
func runCell(w *Workload, cond Condition, level rmi.OptLevel, s Scale, row int) Row {
	r := Row{App: w.Name, Level: level, Cond: cond.Name, Mode: string(w.Mode), Nodes: s.Nodes}
	mark := balance.Take()
	opts, err := cond.Options(row, s)
	if err == nil {
		r.Outcome, err = w.Run(level, s, opts)
	}
	if err == nil {
		err = checkNegotiation(w, cond, &r)
	}
	if err == nil {
		err = mark.Settled(r.overload)
	}
	r.Err = err
	return r
}

// The paper's workloads. Each is a thin adapter over the app package,
// adding the witness check the app leaves to its caller.
var (
	LinkedList = Workload{Name: "LinkedList", Objects: true, Run: func(level rmi.OptLevel, s Scale, opts []rmi.Option) (Outcome, error) {
		out, err := micro.RunLinkedList(level, s.ListElems, s.ListIters, opts...)
		if err == nil && out.ElementsSeen != int64(s.ListElems) {
			err = fmt.Errorf("receiver saw %d elements, want %d", out.ElementsSeen, s.ListElems)
		}
		return appOutcome(out.RunResult, out.Seconds, fmt.Sprintf("%d elements", out.ElementsSeen), err, out.Executions, s.ListIters)
	}}
	Array = Workload{Name: "Array", Objects: true, Run: func(level rmi.OptLevel, s Scale, opts []rmi.Option) (Outcome, error) {
		out, err := micro.RunArray(level, s.ArraySize, s.ArrayIters, opts...)
		return appOutcome(out.RunResult, out.Seconds, fmt.Sprintf("sum %g", out.SumSeen), err, out.Executions, s.ArrayIters)
	}}
	LU = Workload{Name: "LU", Objects: true, Run: func(level rmi.OptLevel, s Scale, opts []rmi.Option) (Outcome, error) {
		out, err := lu.Run(level, s.LUN, s.LUBS, s.Nodes, opts...)
		if err == nil && out.MaxResidual > 1e-6 {
			err = fmt.Errorf("LU residual %g", out.MaxResidual)
		}
		return appOutcome(out.RunResult, out.Seconds, "", err, 0, 0)
	}}
	Superopt = Workload{Name: "Superopt", Objects: true, Run: func(level rmi.OptLevel, s Scale, opts []rmi.Option) (Outcome, error) {
		p := superopt.DefaultParams()
		p.MaxLen, p.Nodes = s.SuperoptMaxLen, s.Nodes
		if s.SuperoptThirdReg {
			p.NRegs = 3
		}
		out, err := superopt.Search(level, p, opts...)
		if err == nil && len(out.Matches) == 0 {
			err = fmt.Errorf("superoptimizer found no equivalences")
		}
		return appOutcome(out.RunResult, out.Seconds, fmt.Sprintf("%d sequences tested, %d equivalences", out.Tested, len(out.Matches)), err, 0, 0)
	}}
	Webserver = Workload{Name: "Webserver", Objects: true, Run: func(level rmi.OptLevel, s Scale, opts []rmi.Option) (Outcome, error) {
		p := webserver.DefaultParams()
		p.Requests, p.Pages, p.Nodes = s.WebRequests, s.WebPages, s.Nodes
		out, err := webserver.Run(level, p, opts...)
		return appOutcome(out.RunResult, out.MicrosPerPage, fmt.Sprintf("%d requests", out.Requests), err, 0, 0)
	}}
)

// appOutcome assembles an app workload's outcome; want > 0 asks for
// exactly that many executions of the user method body (a retransmitted
// call that re-executed would inflate the count).
func appOutcome(res appkit.RunResult, value float64, answer string, err error, execs int64, want int) (Outcome, error) {
	if err == nil && want > 0 && execs != int64(want) {
		err = fmt.Errorf("method body executed %d times, want exactly %d", execs, want)
	}
	return Outcome{RunResult: res, Value: value, Answer: answer}, err
}

// checkNegotiation looks for the negotiation evidence every row must
// show. Under skew, levels that compile site plans must have demoted at
// least one object that crossed a link (the skew was real and was
// detected); class mode — already on the universal encoding — local
// calls, classless traffic and every cell between nodes of one version
// must count none. A malformed-frame rejection would mean a planned
// frame leaked through negotiation (a corrupted one fails its checksum
// first), so any count fails the row.
func checkNegotiation(w *Workload, cond Condition, r *Row) error {
	demotes := cond.Skewed && w.Objects && r.Level != rmi.LevelClass && r.Stats.RemoteRPCs > 0
	switch fb := r.Stats.PlanFallbacks; {
	case r.Stats.MalformedFrames != 0:
		return fmt.Errorf("%d malformed frames", r.Stats.MalformedFrames)
	case demotes && fb == 0:
		return fmt.Errorf("no plan fallbacks: skewed link kept using compiled plans")
	case !demotes && fb != 0:
		return fmt.Errorf("%d plan fallbacks where no skewed link carried a compiled plan", fb)
	}
	return nil
}

// Clean is the fault-free in-process channel network between nodes of
// one program version.
var Clean = Condition{Name: "chan", Options: func(int, Scale) ([]rmi.Option, error) { return nil, nil }}

// ChaosSpec bundles the injected faults and the recovery policy for a
// chaos run.
type ChaosSpec struct {
	Faults transport.FaultConfig
	Policy rmi.CallPolicy
	// Tracer, when non-nil, is attached to every cluster in the run: a
	// timeout or partition auto-dumps its flight recorder's recent
	// history to its configured FailureDump sink.
	Tracer *trace.Tracer
	// ClaimCheck (Every > 0) turns on the sampled runtime claim checker
	// on every cluster, so the chaos run doubles as the audit layer's
	// gate: the compiler's acyclicity and reuse-shape claims hold while
	// the transport misbehaves.
	ClaimCheck rmi.ClaimCheckPolicy
}

// DefaultChaosSpec returns the fault mix used by the chaos test and
// `rmibench -faults`: 5% drop, 3% duplication, 5% reordering, 2%
// corruption, up to 20 µs of extra virtual latency, recovered by a
// 50 ms per-attempt deadline with 12 retransmits.
func DefaultChaosSpec(seed int64) ChaosSpec {
	return ChaosSpec{
		Faults: transport.FaultConfig{
			Seed:       seed,
			FaultRates: transport.FaultRates{Drop: 0.05, Dup: 0.03, Reorder: 0.05, Corrupt: 0.02, DelayNS: 20_000},
		},
		Policy: rmi.CallPolicy{Timeout: 50 * time.Millisecond, Retries: 12, Backoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond},
		// Audit every fourth tick: dense enough that every row
		// re-verifies claims many times, sparse enough that the run
		// still spends most of its calls on the unaudited hot path.
		ClaimCheck: rmi.ClaimCheckPolicy{Every: 4},
	}
}

// Faulty wraps the cell's network in spec's seeded fault injector. Each
// row gets a distinct derived seed: fault rolls depend only on (seed,
// link, packet index), so rows with identical traffic would otherwise
// replay one fault sequence and a run would sample far fewer
// independent faults than its packet volume suggests.
func Faulty(spec ChaosSpec) Condition {
	return Condition{Name: "faulty", Options: func(row int, _ Scale) ([]rmi.Option, error) {
		spec := spec
		spec.Faults.Seed += int64(row) * 7919
		opts := []rmi.Option{rmi.WithFaults(spec.Faults), rmi.WithCallPolicy(spec.Policy)}
		if spec.Tracer != nil {
			opts = append(opts, rmi.WithTracer(spec.Tracer))
		}
		if spec.ClaimCheck.Every > 0 {
			opts = append(opts, rmi.WithClaimCheck(spec.ClaimCheck))
		}
		return opts, nil
	}}
}

// Skew makes node advertise plan fingerprints from a different program
// version, so HELLO negotiation must demote the affected classes to the
// self-describing encoding on every link that touches it.
func Skew(node int) Condition {
	return Condition{Name: "skew", Skewed: true, Options: func(int, Scale) ([]rmi.Option, error) {
		return []rmi.Option{rmi.WithPlanSkew(node)}, nil
	}}
}

// apps are the workloads of the chaos and version-skew runs.
var apps = []Workload{LinkedList, Array, LU}

// Chaos runs the LU kernel and both micro benchmarks over a lossy,
// duplicating, reordering, corrupting interconnect at every level. Each
// row verifies that the fault-tolerance layer (checksums, deadlines,
// retries, callee-side dedup) preserved the workload's results and
// exactly-once execution, and prints the recovery counters.
func Chaos(s Scale, spec ChaosSpec) (*Report, error) {
	rep := chaosReport(spec)
	return rep, runGrid(rep, s, apps, []Condition{Faulty(spec)}, rmi.AllLevels)
}

// chaosReport is an empty report with the chaos title and columns.
func chaosReport(spec ChaosSpec) *Report {
	f := spec.Faults
	return &Report{
		Title: fmt.Sprintf("Chaos run: drop=%.0f%% dup=%.0f%% reorder=%.0f%% corrupt=%.0f%% delay≤%dns seed=%d (timeout=%v, %d retries)",
			f.Drop*100, f.Dup*100, f.Reorder*100, f.Corrupt*100, f.DelayNS, f.Seed, spec.Policy.Timeout, spec.Policy.Retries),
		Cols: []Column[Row]{appCol, levelCol, secondsCol,
			{"retries", 8, "%d", func(r *Row) any { return r.Stats.Retries }},
			{"timeouts", 9, "%d", func(r *Row) any { return r.Stats.Timeouts }},
			{"dup-suppr.", 12, "%d", func(r *Row) any { return r.Stats.DupSuppressed }},
			{"corrupt-drop", 13, "%d", func(r *Row) any { return r.Stats.CorruptDropped }},
			{"audits", 7, "%d", func(r *Row) any { return r.Stats.ClaimChecks }},
			{"violated", 8, "%d", func(r *Row) any { return r.Stats.ClaimViolations }},
			resultCol},
	}
}

// VersionSkew runs the same workloads at every level with skewNode
// advertising version-skewed plan fingerprints, over a fault-free
// interconnect: the mixed-version scenario of the versioned wire
// protocol (DESIGN.md §12). Every result stays correct, nothing
// mis-decodes, and the demotions show in the fallback counters.
func VersionSkew(s Scale, skewNode int) (*Report, error) {
	rep := &Report{
		Title: fmt.Sprintf("Version-skew run: node %d advertises skewed plan fingerprints", skewNode),
		Cols: []Column[Row]{appCol, levelCol, secondsCol,
			{"planFallbacks", 14, "%d", func(r *Row) any { return r.Stats.PlanFallbacks }},
			{"malformed", 10, "%d", func(r *Row) any { return r.Stats.MalformedFrames }},
			resultCol},
	}
	return rep, runGrid(rep, s, apps, []Condition{Skew(skewNode)}, rmi.AllLevels)
}
