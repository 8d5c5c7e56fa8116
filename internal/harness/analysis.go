package harness

// The analysis-at-scale harness: generated MiniJP corpora large
// enough to exercise the parallel per-region scheduler, priced by
// heap.CostStats. analysis_test.go gates the numbers in CI (`make
// verify-analysis`).

import (
	"fmt"

	"cormi/internal/heap"
	"cormi/internal/heap/gen"
	"cormi/internal/ir"
	"cormi/internal/lang"
)

// CompileCorpus front-ends a generated corpus down to IR.
func CompileCorpus(cfg gen.Config) (*ir.Program, error) {
	c := gen.Generate(cfg)
	f, err := lang.Parse(c.Source)
	if err != nil {
		return nil, fmt.Errorf("harness: corpus parse: %w", err)
	}
	cp, err := lang.Check(f)
	if err != nil {
		return nil, fmt.Errorf("harness: corpus check: %w", err)
	}
	p, err := ir.Lower(cp)
	if err != nil {
		return nil, fmt.Errorf("harness: corpus lower: %w", err)
	}
	return p, nil
}

// AnalyzeCorpus compiles and analyzes a generated corpus under the
// given analysis options.
func AnalyzeCorpus(cfg gen.Config, opts heap.Options) (*heap.Analysis, error) {
	p, err := CompileCorpus(cfg)
	if err != nil {
		return nil, err
	}
	return heap.AnalyzeOpts(p, opts), nil
}
