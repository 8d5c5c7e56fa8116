package harness

import (
	"strings"
	"testing"

	"cormi/internal/rmi"
)

func TestAllTablesGenerate(t *testing.T) {
	tables, err := Tables(TestScale(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 8 {
		t.Fatalf("tables = %d", len(tables))
	}
	for i, tab := range tables {
		if tab.ID != i+1 {
			t.Fatalf("table %d has ID %d", i, tab.ID)
		}
		if len(tab.Rows) != len(rmi.AllLevels) {
			t.Fatalf("table %d has %d rows", tab.ID, len(tab.Rows))
		}
		out := tab.Format()
		if !strings.Contains(out, "class") || !strings.Contains(out, "site + reuse + cycle") {
			t.Fatalf("table %d formatting:\n%s", tab.ID, out)
		}
	}
	// Performance tables: all-optimizations row must beat baseline.
	for _, id := range []int{0, 1, 2, 4, 6} { // tables 1,2,3,5,7
		tab := tables[id]
		if tab.Gain(len(tab.Rows)-1) <= 0 {
			t.Fatalf("table %d: no overall gain:\n%s", tab.ID, tab.Format())
		}
	}
	// Statistics tables: cycle lookups vanish in the '+ cycle' rows.
	for _, id := range []int{3, 5, 7} { // tables 4,6,8
		tab := tables[id]
		if !strings.Contains(tab.Format(), "cycle lookups") {
			t.Fatalf("table %d should be a statistics table", tab.ID)
		}
		if tab.Rows[2].Stats.CycleLookups != 0 || tab.Rows[4].Stats.CycleLookups != 0 {
			t.Fatalf("table %d: cycle rows still pay lookups:\n%s", tab.ID, tab.Format())
		}
		if tab.Rows[0].Stats.CycleLookups == 0 {
			t.Fatalf("table %d: baseline has no cycle lookups", tab.ID)
		}
	}
}

func TestGainFormatting(t *testing.T) {
	tab := &Report{ID: 1, Title: "x",
		Rows: []Row{{Level: rmi.LevelClass, Outcome: Outcome{Value: 100}}, {Level: rmi.LevelSite, Outcome: Outcome{Value: 87}}}}
	if g := tab.Gain(1); g != 13 {
		t.Fatalf("gain = %g", g)
	}
	if tab.Gain(0) != 0 {
		t.Fatal("baseline gain nonzero")
	}
	zero := &Report{Rows: []Row{{}, {}}}
	if zero.Gain(1) != 0 {
		t.Fatal("division by zero")
	}
}

// Gain returns the percentage gain of row i's Value over the first
// row's (the class baseline of a paper table).
func (r *Report) Gain(i int) float64 { return gain(r.Rows[0].Value, r.Rows[i].Value) }
