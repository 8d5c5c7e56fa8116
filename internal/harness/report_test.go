package harness

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestRender pins what a Column means to the one table printer: the
// heading and every cell padded to the width, negative widths
// left-aligned, cells wider than their column left whole, columns
// separated by one space.
func TestRender(t *testing.T) {
	type pair struct {
		name string
		n    float64
	}
	got := Render([]Column[pair]{
		{"name", -6, "%s", func(p *pair) any { return p.name }},
		{"share", 7, "%.1f%%", func(p *pair) any { return p.n }},
		{"n", 2, "%.0f", func(p *pair) any { return p.n }},
	}, []pair{{"a", 1}, {"longer-than-6", 123.45}})
	want := "name     share  n\n" +
		"a         1.0%  1\n" +
		"longer-than-6  123.5% 123\n"
	if got != want {
		t.Errorf("Render:\n%s\nwant:\n%s", got, want)
	}
}

// TestReportFormat: title first, notes last, the first failed row named
// by every axis it has.
func TestReportFormat(t *testing.T) {
	rep := &Report{Title: "T", Cols: []Column[Row]{appCol, resultCol}, Notes: []string{"n1"},
		Rows: []Row{{App: "A"}, {App: "B", Cond: "faulty", Mode: "sync", Err: os.ErrClosed}}}
	want := "T\napp           result\nA                 ok\nB            FAIL: file already closed\n  note: n1\n"
	if got := rep.Format(); got != want {
		t.Errorf("Format:\n%q\nwant:\n%q", got, want)
	}
	if err := rep.Failed(); err == nil || err.Error() != "B @ class / faulty / sync: file already closed" {
		t.Errorf("Failed() = %v", err)
	}
}

var (
	anyNumber   = regexp.MustCompile(`[0-9]+(\.[0-9]+)?`)
	spaces      = regexp.MustCompile(` +`)
	framesPerOp = regexp.MustCompile(`\b[0-9]\.[0-9]{3}\b`)
)

// TestReportGolden holds the chaos and chain reports to
// the text the per-feature printers produced before there was one
// renderer (testdata/reports.golden was rendered by the commit before
// it): same title lines, same column names in the same order, same
// rows, and the same characters wherever the value is deterministic.
// What depends on retry timing or on how the LU workers interleave is
// masked on both sides: every number of the chaos report (and, since
// its counters change width, its alignment) and the frames per op in
// the chain table (a chain's last replies can land after the counter
// is read).
func TestReportGolden(t *testing.T) {
	var got strings.Builder
	for _, sec := range []struct {
		name string
		run  func() (*Report, error)
		mask func(string) string
	}{
		{"chaos", chaosRun, func(s string) string {
			return spaces.ReplaceAllString(anyNumber.ReplaceAllString(s, "#"), " ")
		}},
		{"chain", chainRun, func(s string) string { return framesPerOp.ReplaceAllString(s, "#.###") }},
	} {
		rep, err := sec.run()
		if err != nil {
			t.Fatalf("%s: %v", sec.name, err)
		}
		got.WriteString("== " + sec.name + " ==\n" + sec.mask(rep.Format()))
	}
	want, err := os.ReadFile("testdata/reports.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("reports differ from testdata/reports.golden:\n%s", got.String())
	}
}
