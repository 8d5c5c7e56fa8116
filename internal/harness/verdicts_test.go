package harness

import (
	"os"
	"path/filepath"
	"testing"

	"cormi/internal/apps/micro"
	"cormi/internal/apps/superopt"
	"cormi/internal/apps/webserver"
	"cormi/internal/core"
	"cormi/internal/heap"
)

const corpusDir = "../../examples/minijp"

func buildMatrix(t *testing.T, opts core.Options) *VerdictMatrix {
	t.Helper()
	m, err := BuildVerdictMatrix(corpusDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func insensitive() core.Options {
	o := heap.Options{}
	return core.Options{HeapOpts: &o}
}

// checkGolden diffs got against the checked-in golden file;
// UPDATE_GOLDEN=1 rewrites it instead (the reviewed-update workflow).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join(corpusDir, name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden %s (run with UPDATE_GOLDEN=1 to create): %v", name, err)
	}
	if string(want) != got {
		t.Errorf("verdict matrix drifted from %s.\n"+
			"A precision REGRESSION must be fixed; an intended improvement needs a reviewed\n"+
			"golden update: UPDATE_GOLDEN=1 go test ./internal/harness -run TestVerdictMatrix\n"+
			"--- got ---\n%s\n--- want ---\n%s", name, got, string(want))
	}
}

func TestVerdictMatrixGolden(t *testing.T) {
	checkGolden(t, "VERDICTS.golden", buildMatrix(t, core.Options{}).Format())

	// The golden covers examples/minijp only; the MiniJP sketches of the
	// four measured applications (Tables 1, 2, 5-6, 7-8) are pinned here
	// by their verdict totals, counted as the matrix's per-program line
	// counts them.
	for _, app := range []struct {
		name, src             string
		sites, elided, grants int
	}{
		{"linkedlist", micro.LinkedListSrc, 1, 0, 1},
		{"array2d", micro.ArrayBenchSrc, 1, 1, 1},
		{"superopt", superopt.Src, 2, 3, 0},
		{"webserver", webserver.Src, 2, 3, 1},
	} {
		res, err := core.Compile(app.src)
		if err != nil {
			t.Fatalf("%s: %v", app.name, err)
		}
		pv := &ProgramVerdicts{Report: res.Explain(app.name)}
		pv.count()
		if pv.Sites != app.sites || pv.Elided != app.elided || pv.Grants != app.grants {
			t.Errorf("%s: sites=%d elided=%d grants=%d, want %d/%d/%d",
				app.name, pv.Sites, pv.Elided, pv.Grants, app.sites, app.elided, app.grants)
		}
	}
}

func TestVerdictMatrixBaselineGolden(t *testing.T) {
	checkGolden(t, "VERDICTS_BASELINE.golden", buildMatrix(t, insensitive()).Format())
}

// TestPrecisionGain is the tentpole's acceptance criterion, checked
// in-process rather than against the goldens so it cannot be satisfied
// by editing text files: on the corpus, the context-sensitive analysis
// with strong updates must prove strictly more call sites acyclic AND
// grant strictly more buffer reuses than the insensitive baseline.
func TestPrecisionGain(t *testing.T) {
	sharp := buildMatrix(t, core.Options{})
	base := buildMatrix(t, insensitive())
	if sharp.Sites != base.Sites {
		t.Fatalf("site counts differ: sharp=%d base=%d (precision must not change the site list)",
			sharp.Sites, base.Sites)
	}
	if sharp.Elided <= base.Elided {
		t.Errorf("elided cycle checks: sharp=%d base=%d, want strictly more", sharp.Elided, base.Elided)
	}
	if sharp.Grants <= base.Grants {
		t.Errorf("reuse grants: sharp=%d base=%d, want strictly more", sharp.Grants, base.Grants)
	}
}

// TestVerdictMatrixDeterministic pins the witness-selection and
// node-numbering ordering work: two independent end-to-end runs must
// render byte-identical matrices.
func TestVerdictMatrixDeterministic(t *testing.T) {
	a := buildMatrix(t, core.Options{}).Format()
	b := buildMatrix(t, core.Options{}).Format()
	if a != b {
		t.Errorf("matrix differs between runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestContextBudgetBoundsBlowup asserts the bounded-context rules on
// the corpus: the recursive entry must collapse to the single merged
// context, and shrinking the budget below a helper's fan-in must do
// the same — context count, and with it analysis size, is bounded by
// the budget regardless of call-graph shape.
func TestContextBudgetBoundsBlowup(t *testing.T) {
	sharp := buildMatrix(t, core.Options{})
	for _, pv := range sharp.Programs {
		if pv.Program != "recursive.jp" {
			continue
		}
		if pv.Stats.Contexts != 1 {
			t.Errorf("recursive.jp: %d contexts, want 1 (recursion must fall back to the merged summary)",
				pv.Stats.Contexts)
		}
	}
	tiny := heap.DefaultOptions()
	tiny.ContextBudget = 1
	capped := buildMatrix(t, core.Options{HeapOpts: &tiny})
	for i, pv := range capped.Programs {
		if pv.Stats.Contexts > 2 {
			t.Errorf("%s: %d contexts under budget 1, want <= 2", pv.Program, pv.Stats.Contexts)
		}
		if pv.Stats.Nodes > sharp.Programs[i].Stats.Nodes {
			t.Errorf("%s: budget 1 grew the heap graph (%d > %d nodes)",
				pv.Program, pv.Stats.Nodes, sharp.Programs[i].Stats.Nodes)
		}
	}
}
