// Package harness regenerates the paper's evaluation tables (§5,
// Tables 1–8): each workload runs once per optimization level, and the
// results are formatted in the paper's layout — a seconds+gain table
// per application and a runtime-statistics table for LU, the
// superoptimizer and the webserver.
package harness

import (
	"fmt"
	"strings"

	"cormi/internal/apps/micro"
	"cormi/internal/rmi"
	"cormi/internal/stats"
	"cormi/internal/trace"
)

// Scale sizes the workloads. The paper's sizes (1024 matrix, millions
// of RMIs) are reachable but slow in a single test run, so two presets
// exist.
type Scale struct {
	ListElems, ListIters  int
	ArraySize, ArrayIters int
	LUN, LUBS             int
	SuperoptMaxLen        int
	SuperoptThirdReg      bool
	WebRequests, WebPages int
	Nodes                 int
}

// TestScale finishes in well under a second per table.
func TestScale() Scale {
	return Scale{
		ListElems: 100, ListIters: 25,
		ArraySize: 16, ArrayIters: 25,
		LUN: 96, LUBS: 16,
		SuperoptMaxLen: 2,
		WebRequests:    300, WebPages: 64,
		Nodes: 2,
	}
}

// PaperScale approaches the paper's workload sizes (minutes of wall
// time across all tables).
func PaperScale() Scale {
	return Scale{
		ListElems: 100, ListIters: 2000,
		ArraySize: 16, ArrayIters: 2000,
		LUN: 1024, LUBS: 16,
		SuperoptMaxLen: 3, SuperoptThirdReg: true,
		WebRequests: 20000, WebPages: 512,
		Nodes: 2,
	}
}

// Row is one optimization level's measurement.
type Row struct {
	Level   rmi.OptLevel
	Value   float64 // seconds or µs/page
	Stats   stats.Snapshot
	Details string // extra correctness note
}

// Table is one reproduced paper table.
type Table struct {
	ID      int
	Title   string
	Unit    string // "seconds" or "µs per Webpage"
	Rows    []Row
	IsStats bool // render the runtime-statistics layout
	Caveats []string
}

// Gain returns the percentage gain of row i over the class baseline.
func (t *Table) Gain(i int) float64 {
	base := t.Rows[0].Value
	if base == 0 {
		return 0
	}
	return 100 * (base - t.Rows[i].Value) / base
}

// Format renders the table in the paper's layout.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table %d: %s\n", t.ID, t.Title)
	if t.IsStats {
		// "The columns denoted with 'invocations' tell how many calls
		// were made to serialization methods during the serialization
		// process" (§5.2).
		fmt.Fprintf(&b, "%-22s %12s %12s %12s %13s %14s %12s\n",
			"Optimization", "reused objs", "local rpcs", "remote rpcs", "new (MBytes)", "cycle lookups", "invocations")
		for _, r := range t.Rows {
			fmt.Fprintf(&b, "%-22s %12d %12d %12d %13.2f %14d %12d\n",
				r.Level, r.Stats.ReusedObjs, r.Stats.LocalRPCs, r.Stats.RemoteRPCs,
				r.Stats.NewMBytes(), r.Stats.CycleLookups, r.Stats.SerializerCalls)
		}
	} else {
		fmt.Fprintf(&b, "%-22s %12s %18s\n", "Compiler Optimization", t.Unit, "gain over 'class'")
		for i, r := range t.Rows {
			fmt.Fprintf(&b, "%-22s %12.2f %17.1f%%\n", r.Level, r.Value, t.Gain(i))
		}
	}
	for _, c := range t.Caveats {
		fmt.Fprintf(&b, "  note: %s\n", c)
	}
	return b.String()
}

// Table1 reproduces "LinkedList: 100 elements, 2 CPU's".
func Table1(s Scale) (*Table, error) {
	t := &Table{ID: 1, Unit: "seconds",
		Title: fmt.Sprintf("LinkedList: %d elements, %d CPU's (%d sends).", s.ListElems, s.Nodes, s.ListIters)}
	for _, level := range rmi.AllLevels {
		out, err := micro.RunLinkedList(level, s.ListElems, s.ListIters)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{Level: level, Value: out.Seconds, Stats: out.Stats})
	}
	t.Caveats = append(t.Caveats,
		"the list is conservatively flagged cyclic, so the '+ cycle' rows match their bases (as in the paper)")
	return t, nil
}

// Table2 reproduces "2D array transmission, 16x16, 2 CPU's".
func Table2(s Scale) (*Table, error) {
	t := &Table{ID: 2, Unit: "seconds",
		Title: fmt.Sprintf("2D array transmission, %dx%d, %d CPU's (%d sends).", s.ArraySize, s.ArraySize, s.Nodes, s.ArrayIters)}
	for _, level := range rmi.AllLevels {
		out, err := micro.RunArray(level, s.ArraySize, s.ArrayIters)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{Level: level, Value: out.Seconds, Stats: out.Stats})
	}
	return t, nil
}

// TraceReport is the outcome of a traced pass over the Table 1 and 2
// workloads: the latency quantiles per (call site, phase) plus the
// flight recorder's spans, exportable as Chrome-trace JSON with
// trace.WriteChrome.
type TraceReport struct {
	Phases []trace.PhaseStat
	Spans  []trace.SpanRecord
}

// RunTraced runs the micro workloads once per optimization level, iters
// sends each, with a tracer attached. Tracing adds clock reads per
// phase, so traced latencies are reported, never compared against
// untraced ones.
func RunTraced(iters int) (*TraceReport, error) {
	tr := trace.New(trace.Config{RingSize: 4096})
	for _, level := range rmi.AllLevels {
		if _, err := micro.RunLinkedList(level, 100, iters, rmi.WithTracer(tr)); err != nil {
			return nil, fmt.Errorf("harness: traced linkedlist @ %s: %w", level, err)
		}
		if _, err := micro.RunArray(level, 16, iters, rmi.WithTracer(tr)); err != nil {
			return nil, fmt.Errorf("harness: traced array @ %s: %w", level, err)
		}
	}
	return &TraceReport{Phases: tr.PhaseStats(), Spans: tr.Recent()}, nil
}

// FormatPhases renders phase quantiles as an aligned summary table.
func FormatPhases(phases []trace.PhaseStat) string {
	if len(phases) == 0 {
		return "no traced phases recorded\n"
	}
	var b []byte
	b = fmt.Appendf(b, "%-28s %-18s %9s %10s %10s %10s %10s\n",
		"site", "phase", "count", "mean_ns", "p50_ns", "p95_ns", "p99_ns")
	for _, p := range phases {
		b = fmt.Appendf(b, "%-28s %-18s %9d %10.0f %10.0f %10.0f %10.0f\n",
			p.Site, p.Phase, p.Count, p.MeanNS, p.P50NS, p.P95NS, p.P99NS)
	}
	return string(b)
}
