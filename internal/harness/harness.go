// Package harness runs the repository's scenarios — the paper's
// evaluation tables (§5, Tables 1–8), the chaos and call-mode runs,
// the tracing and attribution scenarios — as selections of one table
// (DESIGN.md §7): a Workload runs at an optimization level
// under a link Condition, a chain workload additionally in a ChainMode,
// and every cell yields one Row of one Report whose printed columns are
// data.
package harness

import (
	"fmt"
	"strings"

	"cormi/internal/apps/appkit"
	"cormi/internal/rmi"
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

// Outcome is what running one cell produced. A workload fills in what
// it measures; the rest stays zero.
type Outcome struct {
	// Seconds is the virtual makespan, Stats the runtime counters.
	appkit.RunResult
	// Value is the number the paper's table reports for the workload:
	// seconds, or µs per page for the webserver.
	Value float64
	// Answer is what the cell computed, in a form that compares across
	// cells: every cell of one workload must give the first cell's,
	// whatever its level, condition and mode.
	Answer string
	// Refused is the calls the cell's links refused (rmi.ErrPlanMismatch),
	// from Cluster.LinkStats; a refused cell has no answer.
	Refused int64

	// The chain workloads: Chains chains of Depth dependent calls each.
	// ChainLatencyNS is the virtual-time cost of one chain —
	// deterministic, so ratios between modes are properties of the
	// protocol, not of the host — FramesPerOp the network frames per
	// call (a call and its reply: 2).
	Depth, Chains  int
	ChainLatencyNS int64
	FramesPerOp    float64

	// TreeFacts is filled by the distributed-tracing scenario.
	TreeFacts

	// pending reads the cell's (closed) cluster's pending calls for
	// the balance check; nil when the workload keeps its cluster.
	pending func() int64
}

// Row is one cell of the scenario table: which cell it is, what came
// out, and why it failed if it did.
type Row struct {
	App   string
	Level rmi.OptLevel
	Cond  string // link condition
	Mode  string // chain mode; empty for the other workloads
	Nodes int
	Outcome
	Err error
}

// Cell names the row's cell by every axis it has.
func (r *Row) Cell() string {
	return strings.TrimRight(fmt.Sprintf("%s @ %s / %s / %s", r.App, r.Level, r.Cond, r.Mode), " /")
}

func (r *Row) result() string {
	if r.Err != nil {
		return "FAIL: " + r.Err.Error()
	}
	if r.Refused != 0 {
		return "refused"
	}
	return "ok"
}

// Column is one printed column over rows of type T: heading, width
// (negative: left-aligned), a cell's fmt verb and where it comes from.
type Column[T any] struct {
	Name  string
	Width int
	Verb  string
	Get   func(*T) any
}

// Render prints rows under cols as an aligned text table, one heading
// line and one line per row. It is the package's only table printer.
func Render[T any](cols []Column[T], rows []T) string {
	var b strings.Builder
	line := func(cell func(*Column[T]) string) {
		for i := range cols {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%*s", cols[i].Width, cell(&cols[i]))
		}
		b.WriteByte('\n')
	}
	line(func(c *Column[T]) string { return c.Name })
	for i := range rows {
		line(func(c *Column[T]) string { return fmt.Sprintf(c.Verb, c.Get(&rows[i])) })
	}
	return b.String()
}

// Report is a run of cells and how to print it: a title line, the
// selected columns, and notes below the table.
type Report struct {
	ID    int // paper table number, 0 otherwise
	Title string
	Cols  []Column[Row]
	Rows  []Row
	Notes []string
}

// Format renders the report.
func (r *Report) Format() string {
	out := Render(r.Cols, r.Rows)
	if r.Title != "" {
		out = r.Title + "\n" + out
	}
	for _, n := range r.Notes {
		out += "  note: " + n + "\n"
	}
	return out
}

// Failed returns the first row-level error, if any.
func (r *Report) Failed() error {
	for i := range r.Rows {
		if row := &r.Rows[i]; row.Err != nil {
			return fmt.Errorf("%s: %w", row.Cell(), row.Err)
		}
	}
	return nil
}

func gain(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - v) / base
}

// Columns shared by several reports.
var (
	appCol     = Column[Row]{"app", -12, "%s", func(r *Row) any { return r.App }}
	levelCol   = Column[Row]{"optimization", -22, "%v", func(r *Row) any { return r.Level }}
	secondsCol = Column[Row]{"seconds", 10, "%.4f", func(r *Row) any { return r.Seconds }}
	resultCol  = Column[Row]{"result", 7, "%s", func(r *Row) any { return r.result() }}
	depthCol   = Column[Row]{"depth", 6, "%d", func(r *Row) any { return r.Depth }}
	chainsCol  = Column[Row]{"chains", 7, "%d", func(r *Row) any { return r.Chains }}
)
