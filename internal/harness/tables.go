package harness

// The paper's evaluation (§5): each table is one workload over a clean
// channel network at the five levels; a seconds+gain table and, for the
// applications, a runtime-statistics table over the same rows (the
// paper gathered its statistics on a separate instrumented run; our
// counters are always on).

import (
	"fmt"

	"cormi/internal/rmi"
	"cormi/internal/trace"
)

// paper lists the evaluation's tables: a workload, the unit and title
// of its seconds+gain table and, for the applications, the title of the
// runtime-statistics table numbered one higher; the footnote goes under
// the last of them.
var paper = []struct {
	id           int
	w            Workload
	unit         string
	title, stats func(Scale) string
	note         string
}{
	{1, LinkedList, "seconds", func(s Scale) string {
		return fmt.Sprintf("LinkedList: %d elements, %d CPU's (%d sends).", s.ListElems, s.Nodes, s.ListIters)
	}, nil, "the list is conservatively flagged cyclic, so the '+ cycle' rows match their bases (as in the paper)"},
	{2, Array, "seconds", func(s Scale) string {
		return fmt.Sprintf("2D array transmission, %dx%d, %d CPU's (%d sends).", s.ArraySize, s.ArraySize, s.Nodes, s.ArrayIters)
	}, nil, ""},
	{3, LU, "seconds", func(s Scale) string {
		return fmt.Sprintf("LU: runtime %d matrix (block size %d), %d CPU's.", s.LUN, s.LUBS, s.Nodes)
	}, func(s Scale) string {
		return fmt.Sprintf("LU: runtime statistics %d matrix, %d CPU's.", s.LUN, s.Nodes)
	}, "with '+ reuse' only first-touch deserializations allocate; every identically-shaped block fetch after that reuses"},
	{5, Superopt, "seconds", func(s Scale) string {
		return fmt.Sprintf("Superoptimizer: seconds for performing the exhaustive search (len<=%d), %d CPU's.", s.SuperoptMaxLen, s.Nodes)
	}, func(s Scale) string {
		return fmt.Sprintf("Superoptimizer: runtime statistics, %d CPU's.", s.Nodes)
	}, "programs are queued at the tester and therefore escape: reuse stays at 0 (paper: 2)"},
	{7, Webserver, "µs per Webpage", func(s Scale) string {
		return fmt.Sprintf("Webserver: µs per webpage retrieval (%d requests), %d CPU's.", s.WebRequests, s.Nodes)
	}, func(s Scale) string {
		return fmt.Sprintf("Webserver: runtime statistics, %d CPU's.", s.Nodes)
	}, "with reuse, no objects are allocated by deserialization after the first page (paper: new MBytes -> 0.0)"},
}

// Tables regenerates paper table id (1-8) together with its twin (3 or
// 4 gives both LU tables), or all eight for id 0: one run of the workload
// per optimization level, the statistics table over the same rows. "The
// columns denoted with 'invocations' tell how many calls were made to
// serialization methods during the serialization process" (§5.2).
func Tables(s Scale, id int) ([]*Report, error) {
	var out []*Report
	for _, p := range paper {
		if id != 0 && id != p.id && (p.stats == nil || id != p.id+1) {
			continue
		}
		perf := &Report{ID: p.id, Title: fmt.Sprintf("Table %d: %s", p.id, p.title(s))}
		perf.Cols = []Column[Row]{
			{"Compiler Optimization", -22, "%v", func(r *Row) any { return r.Level }},
			{p.unit, 12, "%.2f", func(r *Row) any { return r.Value }},
			{"gain over 'class'", 18, "%.1f%%", func(r *Row) any { return gain(perf.Rows[0].Value, r.Value) }},
		}
		if err := runGrid(perf, s, []Workload{p.w}, []Condition{Clean}, rmi.AllLevels); err != nil {
			return nil, err
		}
		last := perf
		if p.stats != nil {
			last = &Report{ID: p.id + 1, Title: fmt.Sprintf("Table %d: %s", p.id+1, p.stats(s)), Rows: perf.Rows, Cols: []Column[Row]{
				{"Optimization", -22, "%v", func(r *Row) any { return r.Level }},
				{"reused objs", 12, "%d", func(r *Row) any { return r.Stats.ReusedObjs }},
				{"local rpcs", 12, "%d", func(r *Row) any { return r.Stats.LocalRPCs }},
				{"remote rpcs", 12, "%d", func(r *Row) any { return r.Stats.RemoteRPCs }},
				{"new (MBytes)", 13, "%.2f", func(r *Row) any { return r.Stats.NewMBytes() }},
				{"cycle lookups", 14, "%d", func(r *Row) any { return r.Stats.CycleLookups }},
				{"invocations", 12, "%d", func(r *Row) any { return r.Stats.SerializerCalls }},
			}}
			out = append(out, perf)
		}
		if p.note != "" {
			last.Notes = []string{p.note}
		}
		out = append(out, last)
	}
	return out, nil
}

// LUScaling extends the paper's 2-CPU evaluation: LU at site + reuse +
// cycle at growing cluster sizes, with the parallel speedup in virtual
// time (the natural next question for a cluster system).
func LUScaling(n, bs int, nodeCounts []int) (*Report, error) {
	t := &Report{Title: fmt.Sprintf("LU scaling: %d matrix (block size %d), all optimizations.", n, bs)}
	t.Cols = []Column[Row]{
		{"CPUs", -8, "%d", func(r *Row) any { return r.Nodes }},
		{"seconds", 12, "%.3f", func(r *Row) any { return r.Seconds }},
		{"speedup", 10, "%.2fx", func(r *Row) any { return t.Rows[0].Seconds / r.Seconds }},
	}
	for _, nodes := range nodeCounts {
		s := Scale{LUN: n, LUBS: bs, Nodes: nodes}
		if err := runGrid(t, s, []Workload{LU}, []Condition{Clean}, []rmi.OptLevel{rmi.LevelSiteReuseCycle}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// RunTraced runs the micro workloads once per level, iters sends each,
// with a tracer attached, and returns its attribution snapshot (the
// per-(site, phase) latency histograms) plus the flight recorder's
// spans (trace.WriteChrome exports them). Tracing adds clock reads per
// phase, so traced latencies are reported, never compared against
// untraced ones.
func RunTraced(iters int) ([]trace.SiteAttribution, []trace.SpanRecord, error) {
	tr := trace.New(trace.Config{})
	traced := Condition{Name: "traced", Options: func(int, Scale) ([]rmi.Option, error) {
		return []rmi.Option{rmi.WithTracer(tr)}, nil
	}}
	s := Scale{ListElems: 100, ListIters: iters, ArraySize: 16, ArrayIters: iters, Nodes: 2}
	err := runGrid(&Report{}, s, []Workload{LinkedList, Array}, []Condition{traced}, rmi.AllLevels)
	return tr.Attribution(), tr.Recent(), err
}

// phaseRow is one (site, phase) histogram of an attribution snapshot.
type phaseRow struct {
	site string
	*trace.PhaseHist
}

// FormatPhases renders the per-(site, phase) latency quantiles of an
// attribution snapshot as an aligned summary table.
func FormatPhases(sites []trace.SiteAttribution) string {
	var rows []phaseRow
	for i := range sites {
		for j := range sites[i].Phases {
			rows = append(rows, phaseRow{sites[i].Site, &sites[i].Phases[j]})
		}
	}
	return Render([]Column[phaseRow]{
		{"site", -28, "%s", func(r *phaseRow) any { return r.site }},
		{"phase", -18, "%s", func(r *phaseRow) any { return r.Phase }},
		{"count", 9, "%d", func(r *phaseRow) any { return r.Hist.Total }},
		{"mean_ns", 10, "%.0f", func(r *phaseRow) any { return r.Hist.Mean() }},
		{"p50_ns", 10, "%.0f", func(r *phaseRow) any { return r.Hist.Quantile(0.50) }},
		{"p95_ns", 10, "%.0f", func(r *phaseRow) any { return r.Hist.Quantile(0.95) }},
		{"p99_ns", 10, "%.0f", func(r *phaseRow) any { return r.Hist.Quantile(0.99) }},
	}, rows)
}
