// The soundness fuzzer cross-validates the sharpened heap analysis
// against concrete executions: every random program is compiled at
// full optimization and run in the interpreter, and at every remote
// invocation the caller-side argument graphs (and returned graphs) are
// walked object-by-object. A call site the compiler proved repeat-free
// (cycle table elided) must never be observed shipping a graph that
// reaches any object twice — one counterexample is an unsound elision
// that would hang or corrupt the wire format.

package harness

import (
	"math/rand"
	"testing"

	"cormi/internal/core"
	"cormi/internal/interp"
	"cormi/internal/model"
	"cormi/internal/rmi"
	"cormi/internal/testkit"
)

// repeatedObject walks the graphs rooted at vals with one shared seen
// set — exactly the contract of heap.CycleWitnessFrom, which flags both
// true cycles and DAG sharing — and reports whether any object is
// reached twice.
func repeatedObject(vals []model.Value) bool {
	seen := map[*model.Object]bool{}
	var visit func(o *model.Object) bool
	visit = func(o *model.Object) bool {
		if o == nil {
			return false
		}
		if seen[o] {
			return true
		}
		seen[o] = true
		switch o.Class.Kind {
		case model.KObject:
			for _, f := range o.Fields {
				if f.Kind == model.FRef && visit(f.O) {
					return true
				}
			}
		case model.KRefArray:
			for _, e := range o.Refs {
				if visit(e) {
					return true
				}
			}
		}
		return false
	}
	for _, val := range vals {
		if val.Kind == model.FRef && visit(val.O) {
			return true
		}
	}
	return false
}

func TestSoundnessFuzz(t *testing.T) {
	programs := 120
	if testing.Short() {
		programs = 25
	}
	checkedArgs, checkedRets := 0, 0
	for i := 0; i < programs; i++ {
		seed := int64(9000 + i)
		src := testkit.GenMiniJP(rand.New(rand.NewSource(seed)))
		cluster := rmi.New(2)
		res, err := core.CompileInto(src, cluster.Registry)
		if err != nil {
			cluster.Close()
			t.Fatalf("seed %d: generated program does not compile: %v\n%s", seed, err, src)
		}
		m, err := interp.New(res, cluster, rmi.LevelSiteReuseCycle)
		if err != nil {
			cluster.Close()
			t.Fatalf("seed %d: machine: %v", seed, err)
		}
		siteOf := map[int]*core.SiteInfo{}
		for _, si := range res.Sites {
			if !si.Dead {
				siteOf[si.SiteID] = si
			}
		}
		var violations []string
		m.OnRemoteArgs = func(id int, args []model.Value) {
			si := siteOf[id]
			if si == nil || si.MayCycle {
				return
			}
			checkedArgs++
			if repeatedObject(args) {
				violations = append(violations,
					si.Name+": argument graph repeats an object on a statically-proved-acyclic path")
			}
		}
		m.OnRemoteRet = func(id int, ret model.Value) {
			si := siteOf[id]
			if si == nil || si.RetMayCycle {
				return
			}
			checkedRets++
			if repeatedObject([]model.Value{ret}) {
				violations = append(violations,
					si.Name+": returned graph repeats an object on a statically-proved-acyclic path")
			}
		}
		if _, err := m.RunMain("Main"); err != nil {
			cluster.Close()
			t.Fatalf("seed %d: run: %v\n%s", seed, err, src)
		}
		cluster.Close()
		for _, viol := range violations {
			t.Errorf("seed %d: SOUNDNESS VIOLATION %s\n%s", seed, viol, src)
		}
		if t.Failed() {
			return
		}
	}
	// The fuzzer must have teeth: if no elided-check invocation was
	// ever observed, the generator or verdict plumbing regressed and
	// the test validates nothing.
	if checkedArgs == 0 || checkedRets == 0 {
		t.Errorf("vacuous fuzz run: %d proved-acyclic argument messages and %d returns observed, want both > 0",
			checkedArgs, checkedRets)
	}
}
