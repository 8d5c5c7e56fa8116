package core_test

import (
	"testing"

	"cormi/internal/core"
	"cormi/internal/heap"
	"cormi/internal/heap/gen"
	"cormi/internal/ir"
	"cormi/internal/lang"
	"cormi/internal/testkit"
)

// TestCompileAllocsLinearInFunctions is the machine-independent form
// of BenchmarkCompileScaling: a whole compile — buildSites' escape
// check included, which the 2200-function heap-analysis gate stops
// short of — must allocate about as much per function on a corpus four
// times the size. Allocation counts do not depend on the host, so no
// wall clock is read. The per-graph escape scan the index replaced
// allocated twice as much per function at 1440 functions as at 360
// (256 -> 504); the index allocated about 160 at both sizes, since the
// compiler allocates per compile unit (slabs, ordered sets, a pull
// lexer) it was about 32, and since the heap analysis solves every
// region in one Analysis (no per-region parts to merge) it is about
// 26 — compileAllocsPerFunc holds that absolutely.
func TestCompileAllocsLinearInFunctions(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 1440-function corpus")
	}
	perFunc := func(components int) float64 {
		src := gen.Generate(gen.Config{Seed: 2026, Components: components, FuncsPerComponent: 8}).Source
		funcs := 0
		allocs := testing.AllocsPerRun(3, func() {
			res, err := core.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			funcs = len(res.IR.Funcs)
		})
		t.Logf("%d components: %d functions, %.0f allocs, %.1f per function", components, funcs, allocs, allocs/float64(funcs))
		return allocs / float64(funcs)
	}
	small, large := perFunc(36), perFunc(144)
	if large > 1.5*small {
		t.Errorf("allocations per function grow with program size: %.1f at 360 functions, %.1f at 1440 (limit 1.5x)", small, large)
	}
	// Race instrumentation makes closures escape that otherwise do
	// not; the ratio above holds either way, the absolute count only
	// in a normal build.
	if !testkit.Enabled && (small > compileAllocsPerFunc || large > compileAllocsPerFunc) {
		t.Errorf("%.1f allocations per function at 360 functions, %.1f at 1440: ceiling %d (TestCompileStageAllocs names the stage)",
			small, large, compileAllocsPerFunc)
	}
}

// compileAllocsPerFunc is the absolute ceiling of a cold core.Compile
// on the generated corpus, in allocations per function: the measured
// 25.7 plus a tenth, down from 160 when every IR and AST node, every
// scope and every points-to set was its own allocation, and from 32.1
// when each analysis region was its own Analysis.
const compileAllocsPerFunc = 28

// TestCompileStageAllocs splits that budget by compiler stage, under
// the six names the repo benchmark's ladder reports, so that a
// regression names where it is. Each ceiling is the measured
// allocations per function plus a tenth (and at least one whole
// allocation per ten functions); core.sites is what a whole compile
// allocates beyond the five stages.
func TestCompileStageAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 360-function corpus repeatedly")
	}
	if testkit.Enabled {
		t.Skip("race instrumentation allocates where a normal build does not")
	}
	src := gen.Generate(gen.Config{Seed: 2026, Components: 36, FuncsPerComponent: 8}).Source
	file, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.Check(file)
	if err != nil {
		t.Fatal(err)
	}
	irProg, err := ir.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	funcs := float64(len(irProg.Funcs))

	stages := []struct {
		name    string
		ceiling float64 // allocations per function
		run     func()
	}{
		{"lang.parse", 0.5, func() { _, _ = lang.Parse(src) }},
		{"lang.check", 0.5, func() { _, _ = lang.Check(file) }},
		{"ir.lower", 1.5, func() { _, _ = ir.Lower(prog) }},
		{"ir.validate", 0.1, func() { _ = ir.Validate(irProg) }},
		{"heap.analyze", 15.3, func() { heap.AnalyzeOpts(irProg, heap.DefaultOptions()) }},
	}
	sum := 0.0
	for _, st := range stages {
		per := testing.AllocsPerRun(3, st.run) / funcs
		sum += per
		t.Logf("%-12s %6.2f allocs/function (ceiling %.1f)", st.name, per, st.ceiling)
		if per > st.ceiling {
			t.Errorf("%s allocates %.2f times per function, ceiling %.1f", st.name, per, st.ceiling)
		}
	}
	whole := testing.AllocsPerRun(3, func() {
		if _, err := core.Compile(src); err != nil {
			t.Fatal(err)
		}
	}) / funcs
	const sitesCeiling = 10.7
	t.Logf("%-12s %6.2f allocs/function (ceiling %.1f); whole compile %.2f", "core.sites", whole-sum, sitesCeiling, whole)
	if whole-sum > sitesCeiling {
		t.Errorf("core.sites allocates %.2f times per function, ceiling %.1f", whole-sum, sitesCeiling)
	}
}
