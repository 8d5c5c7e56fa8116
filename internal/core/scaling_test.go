package core_test

import (
	"testing"

	"cormi/internal/core"
	"cormi/internal/heap"
	"cormi/internal/heap/gen"
	"cormi/internal/model"
)

// TestCompileAllocsLinearInFunctions is the machine-independent form
// of BenchmarkCompileScaling: a whole compile — buildSites' escape
// check included, which the 2200-function heap-analysis gate stops
// short of — must allocate about as much per function on a corpus four
// times the size. Allocation counts do not depend on the host, so no
// wall clock is read. The per-graph escape scan the index replaced
// allocated twice as much per function at 1440 functions as at 360
// (256 -> 504); the index allocates about 160 at both sizes.
func TestCompileAllocsLinearInFunctions(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a 1440-function corpus")
	}
	heapOpts := heap.DefaultOptions()
	heapOpts.Workers = 1
	opts := core.Options{HeapOpts: &heapOpts}
	perFunc := func(components int) float64 {
		src := gen.Generate(gen.Config{Seed: 2026, Components: components, FuncsPerComponent: 8}).Source
		funcs := 0
		allocs := testing.AllocsPerRun(3, func() {
			res, err := core.CompileOpts(src, model.NewRegistry(), opts)
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
}
