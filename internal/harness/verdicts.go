// The verdict matrix: the precision regression gate of `make
// verify-precision`. It runs the full compiler over every MiniJP
// program in a corpus directory and renders one line per remote call
// site stating exactly what the optimizer decided — cycle table kept
// or elided (and the witness when kept), plan shape, and buffer reuse
// granted or denied (and the escape rule when denied). The rendered
// table is diffed against a checked-in golden: a precision REGRESSION
// fails CI, an IMPROVEMENT requires a reviewed golden update. A second
// golden, built with the zero heap.Options, pins the
// context-insensitive baseline the tentpole is measured against.

package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cormi/internal/core"
	"cormi/internal/heap"
	"cormi/internal/model"
)

// ProgramVerdicts is one corpus program's row group: the explain
// report it compiled to, plus analysis cost metrics.
type ProgramVerdicts struct {
	Program string
	Report  *core.ExplainReport
	Stats   heap.Stats
	// AnalysisNS is the wall time of the whole compile (parse through
	// plans; the heap analysis dominates). It is reported by
	// FormatCost but deliberately kept out of Format, the golden text.
	AnalysisNS int64

	Sites  int // non-dead remote call sites
	Elided int // elided cycle checks (argument + return directions)
	Grants int // reuse grants (arguments + returns)
}

// VerdictMatrix is the whole corpus run.
type VerdictMatrix struct {
	Opts     core.Options
	Programs []*ProgramVerdicts

	Sites  int
	Elided int
	Grants int
}

// BuildVerdictMatrix compiles every *.jp under dir (sorted by name)
// with the given compiler options and collects the verdicts.
func BuildVerdictMatrix(dir string, opts core.Options) (*VerdictMatrix, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".jp") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("verdict matrix: no .jp programs under %s", dir)
	}
	m := &VerdictMatrix{Opts: opts}
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := core.CompileOpts(string(src), model.NewRegistry(), opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		pv := &ProgramVerdicts{
			Program:    name,
			Report:     res.Explain(name),
			Stats:      res.Heap.AnalysisStats(),
			AnalysisNS: time.Since(start).Nanoseconds(),
		}
		pv.count()
		m.Programs = append(m.Programs, pv)
		m.Sites += pv.Sites
		m.Elided += pv.Elided
		m.Grants += pv.Grants
	}
	return m, nil
}

func (pv *ProgramVerdicts) count() {
	for _, d := range pv.Report.Sites {
		if d.Dead {
			continue
		}
		pv.Sites++
		if d.CycleCheck.Elided {
			pv.Elided++
		}
		if d.RetCycleCheck != nil && d.RetCycleCheck.Elided {
			pv.Elided++
		}
		for _, a := range d.Args {
			if a.Reuse.Applied {
				pv.Grants++
			}
		}
		if d.Ret != nil && d.Ret.Reuse.Applied {
			pv.Grants++
		}
	}
}

// Format renders the golden table. Every piece of it is deterministic:
// sites are name-sorted by Explain, node numbering is fixed by the
// analysis's ordered iteration, and no timings appear.
func (m *VerdictMatrix) Format() string {
	var b strings.Builder
	b.WriteString("# cormi verdict matrix — one line per remote call site\n")
	fmt.Fprintf(&b, "# compiled with context-sensitive=%v strong-updates=%v\n",
		m.heapOpts().ContextSensitive, m.heapOpts().StrongUpdates)
	for _, pv := range m.Programs {
		for _, d := range pv.Report.Sites {
			if d.Dead {
				fmt.Fprintf(&b, "%s %s -> %s | dead\n", pv.Program, d.Site, d.Callee)
				continue
			}
			fmt.Fprintf(&b, "%s %s -> %s | args:%s ret:%s | %s | ret %s\n",
				pv.Program, d.Site, d.Callee,
				cycleVerdict(d.CycleCheck), retCycleVerdict(d.RetCycleCheck),
				argVerdicts(d.Args), retVerdict(d.Ret))
		}
		fmt.Fprintf(&b, "%s :: sites=%d elided=%d grants=%d contexts=%d nodes=%d peak-pts=%d strong-kills=%d iterations=%d\n",
			pv.Program, pv.Sites, pv.Elided, pv.Grants,
			pv.Stats.Contexts, pv.Stats.Nodes, pv.Stats.PeakPointsTo,
			pv.Stats.StrongKills, pv.Stats.Iterations)
	}
	fmt.Fprintf(&b, "TOTAL sites=%d elided=%d grants=%d\n", m.Sites, m.Elided, m.Grants)
	return b.String()
}

// FormatCost renders the per-program analysis cost (wall time included
// — for humans, not for the golden).
func (m *VerdictMatrix) FormatCost() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %10s %9s %7s %9s %12s %11s\n",
		"program", "analysis", "contexts", "nodes", "peak-pts", "strong-kills", "iterations")
	for _, pv := range m.Programs {
		fmt.Fprintf(&b, "%-22s %10s %9d %7d %9d %12d %11d\n",
			pv.Program, time.Duration(pv.AnalysisNS).Round(time.Microsecond),
			pv.Stats.Contexts, pv.Stats.Nodes, pv.Stats.PeakPointsTo,
			pv.Stats.StrongKills, pv.Stats.Iterations)
	}
	return b.String()
}

func (m *VerdictMatrix) heapOpts() heap.Options {
	if m.Opts.HeapOpts != nil {
		return *m.Opts.HeapOpts
	}
	return heap.DefaultOptions()
}

func cycleVerdict(c core.CycleDecision) string {
	if c.Elided {
		if c.LinearRefined {
			return "ELIDED(linear)"
		}
		return "ELIDED"
	}
	if c.Witness != nil {
		return fmt.Sprintf("KEPT(%s@%d)", c.Witness.Kind, c.Witness.RepeatedAlloc)
	}
	return "KEPT"
}

func retCycleVerdict(c *core.CycleDecision) string {
	if c == nil {
		return "-"
	}
	return cycleVerdict(*c)
}

func argVerdicts(args []core.ValueDecision) string {
	if len(args) == 0 {
		return "no args"
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = fmt.Sprintf("a%d:%s", a.Index, valueVerdict(a))
	}
	return strings.Join(parts, " ")
}

func retVerdict(v *core.ValueDecision) string {
	if v == nil {
		return "-"
	}
	return valueVerdict(*v)
}

func valueVerdict(v core.ValueDecision) string {
	s := v.Kind + "/" + v.PlanShape
	if v.PlanShape == "primitive" {
		return s
	}
	if v.Reuse.Applied {
		return s + "/reuse=APPLIED"
	}
	return s + "/reuse=DENIED(" + v.Reuse.DeniedRule + ")"
}
