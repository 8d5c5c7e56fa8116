package heap

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cormi/internal/heap/gen"
)

// refNodeSet is the hash set NodeSet used to be, kept as the oracle
// the ordered sequence is tested against: the same operations, with
// relocation done the way mergeParts did it — a copy into a new map.
type refNodeSet map[NodeID]struct{}

func (s refNodeSet) Add(id NodeID) bool {
	if _, ok := s[id]; ok {
		return false
	}
	s[id] = struct{}{}
	return true
}

func (s refNodeSet) AddAll(t refNodeSet) bool {
	changed := false
	for id := range t {
		if s.Add(id) {
			changed = true
		}
	}
	return changed
}

func (s refNodeSet) Has(id NodeID) bool {
	_, ok := s[id]
	return ok
}

func (s refNodeSet) Sorted() []NodeID {
	ids := make([]NodeID, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (s refNodeSet) relocated(base NodeID) refNodeSet {
	out := make(refNodeSet, len(s))
	for id := range s {
		out[id+base] = struct{}{}
	}
	return out
}

// TestNodeSetDifferential drives the ordered set and the map oracle
// with the same seeded operation sequences — single adds, unions with
// another live set, membership probes, relocation by an offset — over
// id ranges from empty through singleton and dense 0..4095 to sparse,
// and after every step requires the same change report, the same
// contents, and strictly ascending iteration.
func TestNodeSetDifferential(t *testing.T) {
	shapes := []struct {
		name      string
		idRange   int // ids are drawn from [0, idRange)
		steps     int
		prefilled bool // set 0 starts as all of [0, idRange)
		relocates bool
	}{
		{"empty", 1, 0, false, true},
		{"singleton", 1, 4, false, true},
		{"small", 12, 300, false, true},
		{"dense 0..4095", 4096, 400, true, false},
		{"sparse", 1 << 20, 600, false, true},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// Three sets evolve together so AddAll sees every overlap:
			// disjoint, partial, subset, equal, self.
			var got [3]NodeSet
			want := [3]refNodeSet{{}, {}, {}}
			check := func(step int, op string) {
				t.Helper()
				for i, g := range got {
					// As many ids as the oracle, each one in it, strictly
					// ascending: the same set, iterated in Sorted order.
					ok := len(g) == len(want[i])
					for k, id := range g {
						ok = ok && want[i].Has(id) && (k == 0 || g[k-1] < id)
					}
					if !ok {
						t.Fatalf("%s seed %d step %d (%s): set %d = %v, oracle %v", sh.name, seed, step, op, i, g, want[i].Sorted())
					}
				}
			}
			if got[0] != nil || got[0].Has(0) {
				t.Fatalf("%s: the empty set is not the nil value", sh.name)
			}
			if sh.prefilled {
				for id := NodeID(0); id < NodeID(sh.idRange); id++ {
					if !got[0].Add(id) || !want[0].Add(id) {
						t.Fatalf("%s: prefill Add(%d) reported no change", sh.name, id)
					}
				}
			}
			check(0, "initial")
			for step := 1; step <= sh.steps; step++ {
				i, j := rng.Intn(3), rng.Intn(3)
				id := NodeID(rng.Intn(sh.idRange))
				switch op := rng.Intn(10); {
				case op < 5:
					if g, w := got[i].Add(id), want[i].Add(id); g != w {
						t.Fatalf("%s seed %d step %d: Add(%d) reported %v, oracle %v", sh.name, seed, step, id, g, w)
					}
					check(step, "Add")
				case op < 8:
					if g, w := got[i].AddAll(got[j]), want[i].AddAll(want[j]); g != w {
						t.Fatalf("%s seed %d step %d: AddAll(set %d into %d) reported %v, oracle %v", sh.name, seed, step, j, i, g, w)
					}
					check(step, "AddAll")
				case op < 9:
					if g, w := got[i].Has(id), want[i].Has(id); g != w {
						t.Fatalf("%s seed %d step %d: Has(%d) = %v, oracle %v", sh.name, seed, step, id, g, w)
					}
				case sh.relocates:
					// All three move together, as one region's sets do
					// in mergeParts (and so that unions stay bounded by
					// the number of Adds).
					base := NodeID(rng.Intn(1000))
					for k := range got {
						got[k].relocate(base)
						want[k] = want[k].relocated(base)
					}
					check(step, "relocate")
				}
			}
		}
	}
}

// chainAndStar builds analyses whose field graphs are a chain
// 0 -> 1 -> ... -> n-1 and a star 0 -> {1..n-1}.
func chainAndStar(n int) (chain, star *Analysis) {
	chain = &Analysis{Nodes: make([]*Node, n), fields: make([]map[string]NodeSet, n)}
	star = &Analysis{Nodes: make([]*Node, n), fields: make([]map[string]NodeSet, n)}
	leaves := make(NodeSet, 0, n-1)
	for i := 0; i < n-1; i++ {
		chain.fields[i] = map[string]NodeSet{"C.next": {NodeID(i + 1)}}
		leaves = append(leaves, NodeID(i+1))
	}
	star.fields[0] = map[string]NodeSet{ElemKey: leaves}
	return chain, star
}

// TestReachAllocationsIndependentOfSize: Reach over a 20 000-node chain
// and a 20 000-leaf star must return all n nodes, ascending, in at most
// four allocations — the visited bitmap, the work list, the result.
// No clock is read: a result grown by sorted insertion, by append or by
// map cannot stay under the bound at any n, whatever the host.
func TestReachAllocationsIndependentOfSize(t *testing.T) {
	for _, n := range []int{200, 20000} {
		chain, star := chainAndStar(n)
		for name, a := range map[string]*Analysis{"chain": chain, "star": star} {
			var reach NodeSet
			allocs := testing.AllocsPerRun(5, func() { reach = a.Reach(NodeSet{0}) })
			if len(reach) != n || reach[0] != 0 || reach[n-1] != NodeID(n-1) || !slices.IsSorted(reach) {
				t.Fatalf("%s n=%d: Reach returned %d nodes [%d..%d]", name, n, len(reach), reach[0], reach[len(reach)-1])
			}
			if allocs > 4 {
				t.Errorf("%s n=%d: Reach allocated %.0f times, want at most 4", name, n, allocs)
			}
		}
	}
}

// TestMergedViewRelocatedWithItsContexts: mergeParts relocates every
// set of a region in place, and the merged PointsTo view is the one
// table no fingerprint covers (it is derived: the union of a value's
// per-context sets). On a corpus of several regions — so that all but
// the first move by a non-zero offset — the two must still agree, and
// every id must name a node of the merged table.
func TestMergedViewRelocatedWithItsContexts(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 1
	src := gen.Generate(gen.Config{Seed: 404, Components: 5, FuncsPerComponent: 8}).Source
	a, _ := analyzeOpts(t, src, opts)
	values := 0
	for _, f := range a.Prog.Funcs {
		for _, v := range valuesOf(f) {
			var union NodeSet
			for _, c := range a.Contexts(f) {
				union.AddAll(a.PointsToIn(v, c))
			}
			if !slices.Equal(union, a.PointsTo(v)) {
				t.Fatalf("%s %s: PointsTo = %s, union over contexts = %s", f.Name, v, a.PointsTo(v), union)
			}
			for _, id := range union {
				if int(id) >= len(a.Nodes) || a.Nodes[id].ID != id {
					t.Fatalf("%s %s points to %d, not a node of the merged table", f.Name, v, id)
				}
			}
			values += len(union)
		}
	}
	if values == 0 || a.Cost.Components < 2 {
		t.Fatalf("corpus too small to relocate anything (%d regions)", a.Cost.Components)
	}
}
