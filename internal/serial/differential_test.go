package serial

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cormi/internal/model"
	"cormi/internal/stats"
	"cormi/internal/testkit"
	"cormi/internal/wire"
)

// Differential test of the production walkers against the reference
// codec (refcodec_test.go) over random graphs of every plan shape, at
// all five optimization levels: identical frame bytes, identical
// stats.Snapshot and OpCount on both directions, decoded graphs equal
// to the input including their sharing structure, reuse over donor
// graphs that themselves contain sharing, and identical verdicts and
// counters on damaged frames.

var fiveLevels = []struct {
	name string
	cfg  Config
}{
	{"class", Config{Mode: ModeClass}},
	{"site", Config{Mode: ModeSite}},
	{"site+cycle", Config{Mode: ModeSite, CycleElim: true}},
	{"site+reuse", Config{Mode: ModeSite, Reuse: true}},
	{"site+reuse+cycle", Config{Mode: ModeSite, CycleElim: true, Reuse: true}},
}

// diffWorld holds one class per plan shape the walkers distinguish.
type diffWorld struct {
	reg *model.Registry

	node    *model.Class // {v int; next Node}: link last — the looped shape
	rnode   *model.Class // {next RNode; v int}: link first — must recurse
	tree    *model.Class // {v int; l, r Tree}: l recurses, r loops
	g       *model.Class // every primitive kind + two links
	gArr    *model.Class // G[]
	matrix  *model.Class // double[][]
	base    *model.Class
	derived *model.Class // extends Base {data int}
	holder  *model.Class // {id int; b Base}: planned link whose referent may be a Derived
	box     *model.Class // {ints int[]; raw byte[]; any Base (dynamic); tail Box}
}

func newDiffWorld() *diffWorld {
	reg := model.NewRegistry()
	w := &diffWorld{reg: reg}
	self := func(c *model.Class, names ...string) {
		for _, n := range names {
			c.Fields = append(c.Fields, model.Field{Name: n, Kind: model.FRef, Class: c})
		}
	}
	w.node = reg.MustDefine("Node", nil, model.Field{Name: "v", Kind: model.FInt})
	self(w.node, "next")
	w.rnode = reg.MustDefine("RNode", nil)
	self(w.rnode, "next")
	w.rnode.Fields = append(w.rnode.Fields, model.Field{Name: "v", Kind: model.FInt})
	w.tree = reg.MustDefine("Tree", nil, model.Field{Name: "v", Kind: model.FInt})
	self(w.tree, "l", "r")
	w.g = reg.MustDefine("G", nil,
		model.Field{Name: "i", Kind: model.FInt},
		model.Field{Name: "d", Kind: model.FDouble},
		model.Field{Name: "b", Kind: model.FBool},
		model.Field{Name: "s", Kind: model.FString},
	)
	self(w.g, "l", "r")
	w.gArr = reg.ArrayOf(w.g)
	w.matrix = reg.ArrayOf(reg.DoubleArray())
	w.base = reg.MustDefine("Base", nil)
	w.derived = reg.MustDefine("Derived", w.base, model.Field{Name: "data", Kind: model.FInt})
	w.holder = reg.MustDefine("Holder", nil,
		model.Field{Name: "id", Kind: model.FInt},
		model.Field{Name: "b", Kind: model.FRef, Class: w.base},
	)
	w.box = reg.MustDefine("Box", nil,
		model.Field{Name: "ints", Kind: model.FRef, Class: reg.IntArray()},
		model.Field{Name: "raw", Kind: model.FRef, Class: reg.MustByName("byte[]")},
		model.Field{Name: "any", Kind: model.FRef, Class: w.base},
	)
	self(w.box, "tail")
	return w
}

// selfPlan builds the recursive NodePlan of a class whose reference
// fields all point back at the class itself.
func selfPlan(c *model.Class) *NodePlan {
	np := &NodePlan{Class: c}
	for i, f := range c.AllFields() {
		s := Step{Field: i, FieldName: f.Name}
		switch f.Kind {
		case model.FInt:
			s.Op = OpInt
		case model.FDouble:
			s.Op = OpDouble
		case model.FBool:
			s.Op = OpBool
		case model.FString:
			s.Op = OpString
		case model.FRef:
			s.Op, s.Target = OpRef, np
		}
		np.Steps = append(np.Steps, s)
	}
	return np
}

// diffShape is one family of graphs sharing a plan. gen returns a fresh
// random instance; acyclic families may run with the table elided.
type diffShape struct {
	name    string
	root    *NodePlan
	acyclic bool
	link    *LinkPlans
	gen     func(rng *rand.Rand) *model.Object
}

func (w *diffWorld) chain(class *model.Class, link, val string, n int, rng *rand.Rand) (head *model.Object, nodes []*model.Object) {
	for i := 0; i < n; i++ {
		x := model.New(class)
		x.Set(val, model.Int(rng.Int63n(1000)))
		x.Set(link, model.Ref(head))
		head = x
		nodes = append(nodes, x)
	}
	return head, nodes
}

func (w *diffWorld) randTree(rng *rand.Rand, depth int) *model.Object {
	if depth == 0 || rng.Intn(4) == 0 {
		return nil
	}
	t := model.New(w.tree)
	t.Set("v", model.Int(rng.Int63n(1000)))
	t.Set("l", model.Ref(w.randTree(rng, depth-1)))
	t.Set("r", model.Ref(w.randTree(rng, depth-1)))
	return t
}

// randG returns n G nodes wired at random: sharing, cycles, self loops
// and null links all occur.
func (w *diffWorld) randG(rng *rand.Rand, n int) []*model.Object {
	nodes := make([]*model.Object, n)
	for i := range nodes {
		o := model.New(w.g)
		o.Set("i", model.Int(rng.Int63n(100)))
		o.Set("d", model.Double(rng.Float64()))
		o.Set("b", model.Bool(rng.Intn(2) == 0))
		o.Set("s", model.Str(fmt.Sprintf("s%d", rng.Intn(1000))))
		nodes[i] = o
	}
	for _, o := range nodes {
		if rng.Intn(3) != 0 {
			o.Set("l", model.Ref(nodes[rng.Intn(n)]))
		}
		if rng.Intn(3) != 0 {
			o.Set("r", model.Ref(nodes[rng.Intn(n)]))
		}
	}
	return nodes
}

func (w *diffWorld) shapes() []diffShape {
	nodeNP, rnodeNP, treeNP, gNP := selfPlan(w.node), selfPlan(w.rnode), selfPlan(w.tree), selfPlan(w.g)
	if last := gNP.Steps[len(gNP.Steps)-1]; last.Op != OpRef || nodeNP.Steps[1].Op != OpRef || rnodeNP.Steps[0].Op != OpRef {
		panic("differential shapes: link positions are not what the test claims")
	}
	size := func(rng *rand.Rand) int { return rng.Intn(40) }

	baseNP := &NodePlan{Class: w.base}
	holderNP := &NodePlan{Class: w.holder, Steps: []Step{
		{Op: OpInt, Field: 0, FieldName: "id"},
		{Op: OpRef, Field: 1, FieldName: "b", Target: baseNP},
	}}
	boxNP := &NodePlan{Class: w.box}
	boxNP.Steps = []Step{
		{Op: OpRef, Field: 0, FieldName: "ints", Target: &NodePlan{Class: w.reg.IntArray()}},
		{Op: OpRef, Field: 1, FieldName: "raw", Target: &NodePlan{Class: w.reg.MustByName("byte[]")}},
		{Op: OpRefDynamic, Field: 2, FieldName: "any"},
		{Op: OpRef, Field: 3, FieldName: "tail", Target: boxNP},
	}
	demoteNode := &LinkPlans{version: 1}
	demoteNode.demote(w.node.ID)
	demoteBase := &LinkPlans{version: 1}
	demoteBase.demote(w.base.ID)

	return []diffShape{
		{name: "list/link-last", root: nodeNP, acyclic: true, gen: func(rng *rand.Rand) *model.Object {
			head, _ := w.chain(w.node, "next", "v", size(rng), rng)
			return head
		}},
		{name: "list/link-first", root: rnodeNP, acyclic: true, gen: func(rng *rand.Rand) *model.Object {
			head, _ := w.chain(w.rnode, "next", "v", size(rng), rng)
			return head
		}},
		{name: "list/cyclic", root: nodeNP, gen: func(rng *rand.Rand) *model.Object {
			head, nodes := w.chain(w.node, "next", "v", 1+size(rng), rng)
			nodes[0].Set("next", model.Ref(nodes[rng.Intn(len(nodes))])) // tail closes a ring
			return head
		}},
		{name: "tree", root: treeNP, acyclic: true, gen: func(rng *rand.Rand) *model.Object {
			return w.randTree(rng, 6)
		}},
		{name: "dag+cycles", root: gNP, gen: func(rng *rand.Rand) *model.Object {
			return w.randG(rng, 1+size(rng))[0]
		}},
		{name: "ref-array", root: &NodePlan{Class: w.gArr, Elem: gNP}, gen: func(rng *rand.Rand) *model.Object {
			nodes := w.randG(rng, 1+size(rng))
			arr := model.NewArray(w.gArr, rng.Intn(12))
			for i := range arr.Refs {
				if rng.Intn(5) != 0 {
					arr.Refs[i] = nodes[rng.Intn(len(nodes))]
				}
			}
			return arr
		}},
		{name: "matrix", root: &NodePlan{Class: w.matrix, Elem: &NodePlan{Class: w.reg.DoubleArray()}}, acyclic: true,
			gen: func(rng *rand.Rand) *model.Object {
				m := model.NewArray(w.matrix, rng.Intn(6))
				for i := range m.Refs {
					row := model.NewArray(w.reg.DoubleArray(), 1+rng.Intn(4)) // ragged: reuse must cope with resizes
					for j := range row.Doubles {
						row.Doubles[j] = rng.Float64()
					}
					m.Refs[i] = row
				}
				return m
			}},
		{name: "box/arrays+dynamic-field", root: boxNP, acyclic: true, gen: func(rng *rand.Rand) *model.Object {
			var head *model.Object
			for i := rng.Intn(6); i > 0; i-- {
				b := model.New(w.box)
				ints := model.NewArray(w.reg.IntArray(), rng.Intn(5))
				for j := range ints.Ints {
					ints.Ints[j] = rng.Int63()
				}
				raw := model.NewArray(w.reg.MustByName("byte[]"), rng.Intn(5))
				rng.Read(raw.Bytes)
				d := model.New(w.derived)
				d.Set("data", model.Int(rng.Int63n(9)))
				b.Set("ints", model.Ref(ints))
				b.Set("raw", model.Ref(raw))
				b.Set("any", model.Ref(d))
				b.Set("tail", model.Ref(head))
				head = b
			}
			return head
		}},
		// The plan predicts Base behind Holder.b; a Derived there is a
		// plan miss on the trailing link and rides the dynamic path.
		{name: "plan-miss", root: holderNP, acyclic: true, gen: func(rng *rand.Rand) *model.Object {
			h := model.New(w.holder)
			h.Set("id", model.Int(rng.Int63n(9)))
			switch rng.Intn(3) {
			case 0:
				h.Set("b", model.Ref(model.New(w.base)))
			case 1:
				d := model.New(w.derived)
				d.Set("data", model.Int(rng.Int63n(9)))
				h.Set("b", model.Ref(d))
			}
			return h
		}},
		{name: "demoted/root", root: nodeNP, acyclic: true, link: demoteNode, gen: func(rng *rand.Rand) *model.Object {
			head, _ := w.chain(w.node, "next", "v", 1+size(rng), rng)
			return head
		}},
		{name: "demoted/trailing-link", root: holderNP, acyclic: true, link: demoteBase, gen: func(rng *rand.Rand) *model.Object {
			h := model.New(w.holder)
			h.Set("b", model.Ref(model.New(w.base)))
			return h
		}},
	}
}

// sameGraph is structural equality that also refuses a graph in which
// two distinct nodes of the other were collapsed into one.
func sameGraph(a, b *model.Object) bool {
	return testkit.DeepEqual(a, b) && testkit.DeepEqual(b, a)
}

// diffCase is one message: a graph of the shape between two
// primitives (so value framing is exercised too).
type diffCase struct {
	vals  []model.Value
	plans []*Plan
	cfg   Config
}

func (s diffShape) message(rng *rand.Rand, cfg Config) diffCase {
	needCycle := !s.acyclic || rng.Intn(2) == 0
	cfg.Link = s.link
	return diffCase{
		vals: []model.Value{model.Int(rng.Int63()), model.Ref(s.gen(rng)), model.Str("tail")},
		plans: []*Plan{
			PrimitivePlan("D.m.1", model.FInt),
			{Site: "D.m.1", Kind: model.FRef, Root: s.root, NeedCycle: needCycle, Reusable: true},
			PrimitivePlan("D.m.1", model.FString),
		},
		cfg: cfg,
	}
}

// writeBoth encodes dc with the production writer and the reference
// and asserts they agree on everything observable.
func writeBoth(t *testing.T, dc diffCase) []byte {
	t.Helper()
	want, wantSt, wantOps, wantErr := refWrite(dc.vals, dc.plans, dc.cfg)
	var c stats.Counters
	m := wire.NewMessage(0)
	ops, err := WriteValues(m, dc.vals, dc.plans, dc.cfg, &c)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("write verdict: production %v, reference %v", err, wantErr)
	}
	if !bytes.Equal(m.Bytes(), want) {
		t.Fatalf("frame bytes differ from the reference:\n got %x\nwant %x", m.Bytes(), want)
	}
	if got := c.Snapshot(); got != wantSt {
		t.Fatalf("write stats:\n got %+v\nwant %+v", got, wantSt)
	}
	if ops != wantOps {
		t.Fatalf("write ops:\n got %+v\nwant %+v", ops, wantOps)
	}
	return append([]byte(nil), want...)
}

// readBoth decodes frame with the production reader over donors and the
// reference over refDonors (two equal donor graphs: both readers
// overwrite theirs) and asserts agreement. It returns the production
// result and the counters the decode published.
func readBoth(t *testing.T, reg *model.Registry, frame []byte, dc diffCase, donors, refDonors []*model.Object) ([]model.Value, []*model.Object, stats.Snapshot, error) {
	t.Helper()
	n := len(dc.vals)
	wantVals, _, wantSt, wantOps, wantErr := refRead(frame, reg, n, dc.plans, dc.cfg, refDonors)
	var c stats.Counters
	before := ReadCtxStats().Outstanding
	vals, roots, ops, err := ReadValuesScratch(wire.FromBytes(frame), reg, n, dc.plans, dc.cfg, donors, nil, &c)
	if out := ReadCtxStats().Outstanding; out != before {
		t.Fatalf("read contexts outstanding %d -> %d", before, out)
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("read verdict: production %v, reference %v", err, wantErr)
	}
	if err != nil && (!errors.Is(err, wire.ErrMalformedFrame) || !errors.Is(wantErr, wire.ErrMalformedFrame)) {
		t.Fatalf("untyped rejection: production %v, reference %v", err, wantErr)
	}
	got := c.Snapshot()
	if got != wantSt {
		t.Fatalf("read stats (err=%v):\n got %+v\nwant %+v", err, got, wantSt)
	}
	if ops != wantOps {
		t.Fatalf("read ops (err=%v):\n got %+v\nwant %+v", err, ops, wantOps)
	}
	if err == nil {
		for i := range vals {
			if !testkit.DeepEqualValue(vals[i], wantVals[i]) || !testkit.DeepEqualValue(wantVals[i], vals[i]) {
				t.Fatalf("value %d: production and reference decoded different graphs", i)
			}
		}
	}
	return vals, roots, got, err
}

func checkDecoded(t *testing.T, what string, in, out []model.Value) {
	t.Helper()
	for i := range in {
		if in[i].Kind != model.FRef {
			if !out[i].Equal(in[i]) {
				t.Fatalf("%s: value %d = %v, want %v", what, i, out[i], in[i])
			}
			continue
		}
		if !sameGraph(in[i].O, out[i].O) {
			t.Fatalf("%s: value %d does not reproduce the input graph", what, i)
		}
		if in[i].O != nil && in[i].O == out[i].O {
			t.Fatalf("%s: value %d aliases the sender's object", what, i)
		}
	}
}

func TestDifferentialAgainstReference(t *testing.T) {
	w := newDiffWorld()
	for _, shape := range w.shapes() {
		for _, level := range fiveLevels {
			t.Run(shape.name+"/"+level.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(shape.name))*7919 + int64(len(level.name))))
				for round := 0; round < 40; round++ {
					a := shape.message(rng, level.cfg)
					b := a
					b.vals = []model.Value{model.Int(rng.Int63()), model.Ref(shape.gen(rng)), model.Str("again")}

					frameA := writeBoth(t, a)
					got, donors, _, err := readBoth(t, w.reg, frameA, a, nil, nil)
					if err != nil {
						t.Fatalf("valid frame rejected: %v", err)
					}
					checkDecoded(t, "fresh decode", a.vals, got)

					// Second message of the same call site decoded over the
					// first one's graphs: donors that contain whatever
					// sharing message A had must not leak it into B.
					_, refDonors, _, _, err := refRead(frameA, w.reg, len(a.vals), a.plans, a.cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					frameB := writeBoth(t, b)
					got, _, _, err = readBoth(t, w.reg, frameB, b, donors, refDonors)
					if err != nil {
						t.Fatalf("valid frame rejected over donors: %v", err)
					}
					checkDecoded(t, "decode over donors", b.vals, got)

					// Damaged frames: same verdict, same counters (objects
					// materialized before the rejection stay counted).
					if len(frameA) > 1 {
						cut := frameB[:rng.Intn(len(frameB))]
						readBoth(t, w.reg, cut, b, nil, nil)
						_, donors, _, _, _ = refRead(frameA, w.reg, len(a.vals), a.plans, a.cfg, nil)
						_, refDonors, _, _, _ = refRead(frameA, w.reg, len(a.vals), a.plans, a.cfg, nil)
						readBoth(t, w.reg, cut, b, donors, refDonors)
						flipped := append([]byte(nil), frameA...)
						flipped[rng.Intn(len(flipped))] ^= byte(1 + rng.Intn(255))
						readBoth(t, w.reg, flipped, a, nil, nil)
					}
				}
			})
		}
	}
}

// TestDifferentialArgumentAliasing: the same graph passed as two
// arguments of one message shares one table across both walks.
func TestDifferentialArgumentAliasing(t *testing.T) {
	w := newDiffWorld()
	rng := rand.New(rand.NewSource(11))
	np := selfPlan(w.node)
	for _, level := range fiveLevels {
		head, nodes := w.chain(w.node, "next", "v", 30, rng)
		plan := &Plan{Site: "D.two.1", Kind: model.FRef, Root: np, NeedCycle: true, Reusable: true}
		dc := diffCase{
			vals:  []model.Value{model.Ref(head), model.Ref(nodes[12])},
			plans: []*Plan{plan, plan},
			cfg:   level.cfg,
		}
		frame := writeBoth(t, dc)
		got, _, _, err := readBoth(t, w.reg, frame, dc, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", level.name, err)
		}
		checkDecoded(t, level.name, dc.vals, got)
		mid := got[0].O
		for i := 0; i < 30-1-12; i++ {
			mid = mid.GetRef("next")
		}
		if got[1].O != mid {
			t.Fatalf("%s: second argument is not the first argument's node", level.name)
		}
	}
}
