package serial

import (
	"testing"

	"cormi/internal/model"
	"cormi/internal/stats"
	"cormi/internal/testkit"
	"cormi/internal/wire"
)

// codecShape is one of the three walks the planned codec distinguishes:
// a chain on a trailing link (the loop), an array of primitive arrays
// (bulk copies under a recursing element loop), and a binary tree (one
// recursing link, one looping link). plan is the compiler's verdict
// for it: the list is conservatively cyclic (table kept), the array
// and the tree are proven acyclic (table elided).
type codecShape struct {
	name string
	root *model.Object
	plan *Plan
}

// codecShapes builds the three shapes in a fresh registry: a 100-node
// list, a 16x16 double[][] and a depth-6 binary tree.
func codecShapes() (*model.Registry, []codecShape) {
	reg := model.NewRegistry()
	list := testkit.MustDefine(reg, "LinkedList", nil)
	list.Fields = append(list.Fields, model.Field{Name: "Next", Kind: model.FRef, Class: list})
	tree := testkit.MustDefine(reg, "Tree", nil, model.Field{Name: "v", Kind: model.FInt})
	tree.Fields = append(tree.Fields,
		model.Field{Name: "l", Kind: model.FRef, Class: tree},
		model.Field{Name: "r", Kind: model.FRef, Class: tree})
	matrix := reg.ArrayOf(reg.DoubleArray())

	var head *model.Object
	for i := 0; i < 100; i++ {
		x := model.New(list)
		x.Fields[0] = model.Ref(head)
		head = x
	}
	arr := model.NewArray(matrix, 16)
	for i := range arr.Refs {
		arr.Refs[i] = model.NewArray(reg.DoubleArray(), 16)
		for j := range arr.Refs[i].Doubles {
			arr.Refs[i].Doubles[j] = float64(i + j)
		}
	}
	var grow func(depth int) *model.Object
	grow = func(depth int) *model.Object {
		if depth == 0 {
			return nil
		}
		t := model.New(tree)
		t.Fields[0] = model.Int(int64(depth))
		t.Fields[1] = model.Ref(grow(depth - 1))
		t.Fields[2] = model.Ref(grow(depth - 1))
		return t
	}

	listNP := &NodePlan{Class: list}
	listNP.Steps = []Step{{Op: OpRef, Field: 0, FieldName: "Next", Target: listNP}}
	treeNP := &NodePlan{Class: tree}
	treeNP.Steps = []Step{
		{Op: OpInt, Field: 0, FieldName: "v"},
		{Op: OpRef, Field: 1, FieldName: "l", Target: treeNP},
		{Op: OpRef, Field: 2, FieldName: "r", Target: treeNP},
	}
	return reg, []codecShape{
		{"list100", head, &Plan{Site: "Foo.send.1", Kind: model.FRef, Root: listNP, NeedCycle: true, Reusable: true}},
		{"array16x16", arr, &Plan{Site: "ArrayBench.send.1", Kind: model.FRef,
			Root: &NodePlan{Class: matrix, Elem: &NodePlan{Class: reg.DoubleArray()}}, Reusable: true}},
		{"tree6", grow(6), &Plan{Site: "Tree.send.1", Kind: model.FRef, Root: treeNP, Reusable: true}},
	}
}

// BenchmarkPlannedCodec is the serial layer's rung of the measurement
// ladder: the plan-driven writer and reader alone, per plan shape, at
// site+reuse+cycle in steady state (pooled contexts warm, the previous
// message's graph as the reuse donor). Beside them, class/write and
// class/read are the baseline on the same shape: per-class dynamic
// encode with type information and a cycle table, and dynamic decode
// with fresh allocation, every object carved from the message's slabs
// sized by a slab hint, as the rmi layer reads it.
//
//	make bench-codec
func BenchmarkPlannedCodec(b *testing.B) {
	reg, shapes := codecShapes()
	cfg := Config{Mode: ModeSite, CycleElim: true, Reuse: true}
	for _, s := range shapes {
		vals := []model.Value{model.Ref(s.root)}
		plans := []*Plan{s.plan}
		var c stats.Counters
		b.Run(s.name+"/write", func(b *testing.B) {
			m := wire.NewMessage(4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ResetTo(m.Bytes()[:0])
				if _, err := WriteValues(m, vals, plans, cfg, &c); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(m.Len()))
		})
		b.Run(s.name+"/read", func(b *testing.B) {
			m := wire.NewMessage(4096)
			if _, err := WriteValues(m, vals, plans, cfg, &c); err != nil {
				b.Fatal(err)
			}
			var cached []*model.Object
			var scratch []model.Value
			rd := wire.FromBytes(m.Bytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Rewind()
				var err error
				if scratch, cached, _, err = ReadValuesScratch(rd, reg, 1, plans, cfg, cached, scratch, &c); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(m.Len()))
		})
		class := Config{Mode: ModeClass}
		b.Run(s.name+"/class/write", func(b *testing.B) {
			m := wire.NewMessage(4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ResetTo(m.Bytes()[:0])
				if _, err := WriteValues(m, vals, nil, class, &c); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(m.Len()))
		})
		b.Run(s.name+"/class/read", func(b *testing.B) {
			class := class
			class.Hint = &SlabHint{}
			m := wire.NewMessage(4096)
			if _, err := WriteValues(m, vals, nil, class, &c); err != nil {
				b.Fatal(err)
			}
			var scratch []model.Value
			rd := wire.FromBytes(m.Bytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Rewind()
				var err error
				if scratch, _, _, err = ReadValuesScratch(rd, reg, 1, nil, class, nil, scratch, &c); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(m.Len()))
		})
	}
}
