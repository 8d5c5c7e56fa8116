package micro

import (
	"testing"

	"cormi/internal/core"
	"cormi/internal/rmi"
)

// TestRefinedListDropsCycleWork validates the linear-list refinement
// end to end: with it, the conservatively-cyclic verdict of Table 1
// disappears and '+ cycle' actually helps the list benchmark.
func TestRefinedListDropsCycleWork(t *testing.T) {
	plain, err := RunLinkedList(rmi.LevelSiteCycle, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := RunLinkedListRefined(rmi.LevelSiteCycle, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.CycleLookups == 0 {
		t.Fatal("unrefined list should still pay cycle lookups")
	}
	if refined.Stats.CycleLookups != 0 || refined.Stats.CycleTables != 0 {
		t.Fatalf("refined list still paid cycle work: %+v", refined.Stats)
	}
	if !(refined.Seconds < plain.Seconds) {
		t.Fatalf("refinement did not help: %.6f vs %.6f", refined.Seconds, plain.Seconds)
	}
	if refined.ElementsSeen != 100 {
		t.Fatalf("receiver saw %d elements", refined.ElementsSeen)
	}

	// Correctness is settings-independent: all levels still deliver
	// the full list.
	for _, level := range rmi.AllLevels {
		out, err := RunLinkedListRefined(level, 50, 3)
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		if out.ElementsSeen != 50 {
			t.Fatalf("%v: receiver saw %d elements", level, out.ElementsSeen)
		}
	}
}

// RunLinkedListRefined is RunLinkedList with the linear-list
// refinement enabled — the paper's future-work fix for the list being
// conservatively flagged cyclic. With it, the '+ cycle' rows of
// Table 1 gain over their bases instead of matching them.
func RunLinkedListRefined(level rmi.OptLevel, elems, iters int, clusterOpts ...rmi.Option) (LinkedListOutcome, error) {
	return runLinkedList(level, elems, iters, core.Options{LinearListRefinement: true}, clusterOpts...)
}
