package superopt

import (
	"strings"
	"testing"

	"cormi/internal/core"
	"cormi/internal/rmi"
	"cormi/internal/stats"
)

func TestISAEvalBasics(t *testing.T) {
	regs := []int64{3, 5}
	Seq{{Op: OpAdd, Dst: 0, Src: 1}}.Eval(regs)
	if regs[0] != 8 {
		t.Fatalf("add: %v", regs)
	}
	Seq{{Op: OpShl, Dst: 0}}.Eval(regs)
	if regs[0] != 16 {
		t.Fatalf("shl: %v", regs)
	}
	Seq{{Op: OpLoadI, Dst: 1, Imm: -7}, {Op: OpNeg, Dst: 1}}.Eval(regs)
	if regs[1] != 7 {
		t.Fatalf("loadi/neg: %v", regs)
	}
	Seq{{Op: OpNot, Dst: 1}, {Op: OpShr, Dst: 1}, {Op: OpMov, Dst: 0, Src: 1},
		{Op: OpSub, Dst: 0, Src: 1}, {Op: OpXor, Dst: 0, Src: 0},
		{Op: OpAnd, Dst: 0, Src: 1}, {Op: OpOr, Dst: 0, Src: 1}}.Eval(regs)
	if regs[0] != regs[1] {
		t.Fatalf("chain: %v", regs)
	}
}

func TestEquivalence(t *testing.T) {
	double := Seq{{Op: OpAdd, Dst: 0, Src: 0}}
	shl := Seq{{Op: OpShl, Dst: 0}}
	if !Equivalent(double, shl, 2, 16, 42) {
		t.Fatal("2*r0 and r0<<1 must be equivalent")
	}
	mov := Seq{{Op: OpMov, Dst: 0, Src: 1}}
	if Equivalent(double, mov, 2, 16, 42) {
		t.Fatal("mov misjudged equivalent")
	}
	// Sequences differing only in a scratch register must differ.
	clobber := Seq{{Op: OpShl, Dst: 0}, {Op: OpLoadI, Dst: 1, Imm: 0}}
	if Equivalent(double, clobber, 2, 16, 42) {
		t.Fatal("register clobber not observed")
	}
}

func TestEnumerate(t *testing.T) {
	insns := Enumerate([]Op{OpAdd, OpNot, OpLoadI}, 2, []int64{0, 1})
	// add: 2 dst × 2 src = 4; not: 2; loadi: 2 dst × 2 imm = 4.
	if len(insns) != 10 {
		t.Fatalf("enumerated %d, want 10", len(insns))
	}
}

func TestSketchVerdicts(t *testing.T) {
	res, err := core.Compile(Src)
	if err != nil {
		t.Fatal(err)
	}
	test := res.SiteByName("Generator.produce.1")
	if test == nil {
		t.Fatal("no test site")
	}
	if test.MayCycle {
		t.Fatal("program graph misflagged cyclic (the paper removes all dynamic cycle checks)")
	}
	if test.ArgReusable[0] {
		t.Fatal("queued program escapes; must not be reusable (paper: 'not eligible for reuse')")
	}
	if !test.IgnoreRet {
		t.Fatal("test is void; should be ack-only")
	}
	// The instruction array and operand fields are fully inlined.
	root := test.ArgPlans[0].Root
	if root == nil || root.Class.Name != "Program" {
		t.Fatalf("program plan: %+v", root)
	}
}

// TestSearchFindsShiftAtAllLevels asserts the Table 5/6 shape on the
// runtime counters, which depend only on the messages sent. The virtual
// makespan (Outcome.Seconds) is not compared: several feeder goroutines
// advance the producer node's clock, so it varies with their
// interleaving by more than the gaps between levels when the host is
// contended (go test -race ./... on two CPUs).
func TestSearchFindsShiftAtAllLevels(t *testing.T) {
	stat := map[rmi.OptLevel]stats.Snapshot{}
	for _, level := range rmi.AllLevels {
		out, err := Search(level, DefaultParams())
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		found := false
		for _, m := range out.Matches {
			if m == "shl r0" {
				found = true
			}
		}
		if !found {
			t.Fatalf("%v: shl r0 not found among %d matches", level, len(out.Matches))
		}
		if out.Tested == 0 || out.Stats.RemoteRPCs == 0 || out.Stats.LocalRPCs == 0 {
			t.Fatalf("%v: tested=%d rpcs=%d/%d", level, out.Tested,
				out.Stats.LocalRPCs, out.Stats.RemoteRPCs)
		}
		stat[level] = out.Stats
	}
	class, site := stat[rmi.LevelClass], stat[rmi.LevelSite]
	// Table 5 shape: site helps some — the per-object type information
	// and dynamic serializer invocations go, the cycle table stays.
	if !(site.TypeOps < class.TypeOps && site.SerializerCalls < class.SerializerCalls &&
		site.TypeBytes < class.TypeBytes && site.WireBytes < class.WireBytes) {
		t.Fatalf("site does not undercut class:\n class %v\n site  %v", class, site)
	}
	if site.CycleLookups != class.CycleLookups || class.CycleLookups == 0 {
		t.Fatalf("cycle lookups: class %d, site %d; both should pay the same non-zero count",
			class.CycleLookups, site.CycleLookups)
	}
	// Table 6 shape: cycle elimination is the big win — every table and
	// lookup goes, and nothing else moves.
	cycle := stat[rmi.LevelSiteCycle]
	if cycle.CycleLookups != 0 || cycle.CycleTables != 0 {
		t.Fatalf("with elimination: %d tables, %d lookups", cycle.CycleTables, cycle.CycleLookups)
	}
	cycle.CycleTables, cycle.CycleLookups = site.CycleTables, site.CycleLookups
	if cycle != site {
		t.Fatalf("cycle elimination moved more than the cycle counters:\n site       %v\n site+cycle %v", site, stat[rmi.LevelSiteCycle])
	}
	// Reuse contributes nothing: the queued programs escape, so the
	// reuse levels run exactly like their bases.
	if stat[rmi.LevelSiteReuse] != site || stat[rmi.LevelSiteReuseCycle] != stat[rmi.LevelSiteCycle] {
		t.Fatalf("reuse changed the counters:\n site %v\n +reuse %v\n site+cycle %v\n +reuse %v",
			site, stat[rmi.LevelSiteReuse], stat[rmi.LevelSiteCycle], stat[rmi.LevelSiteReuseCycle])
	}
}

func TestSearchReuseStats(t *testing.T) {
	out, err := Search(rmi.LevelSiteReuseCycle, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Programs are queued at the tester (escape) — nothing reused.
	if out.Stats.ReusedObjs != 0 {
		t.Fatalf("reused objs = %d, want 0", out.Stats.ReusedObjs)
	}
}

func TestMatchesAreRealEquivalences(t *testing.T) {
	p := DefaultParams()
	out, err := Search(rmi.LevelSiteReuseCycle, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Matches) == 0 {
		t.Fatal("no matches")
	}
	// Every reported match must contain "shl r0" or reproduce doubling
	// behavior; spot-check that none of them is a mov-only sequence.
	for _, m := range out.Matches {
		if strings.HasPrefix(m, "mov") && !strings.Contains(m, ";") {
			t.Fatalf("bogus single-mov match %q", m)
		}
	}
}
