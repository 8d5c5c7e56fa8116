package serial

import (
	"testing"

	"cormi/internal/model"
	"cormi/internal/stats"
	"cormi/internal/testkit"
	"cormi/internal/wire"
)

// bagShape adds a fourth shape to codecShapes for the slices the other
// three never carve: a chain of eight Bags, each holding an int[3].
func bagShape(reg *model.Registry) codecShape {
	bag := testkit.MustDefine(reg, "Bag", nil,
		model.Field{Name: "ints", Kind: model.FRef, Class: reg.IntArray()})
	bag.Fields = append(bag.Fields, model.Field{Name: "next", Kind: model.FRef, Class: bag})
	var head *model.Object
	for i := 0; i < 8; i++ {
		x := model.New(bag)
		ints := model.NewArray(reg.IntArray(), 3)
		for j := range ints.Ints {
			ints.Ints[j] = int64(10*i + j)
		}
		x.Fields[0], x.Fields[1] = model.Ref(ints), model.Ref(head)
		head = x
	}
	np := &NodePlan{Class: bag}
	np.Steps = []Step{
		{Op: OpRef, Field: 0, FieldName: "ints", Target: &NodePlan{Class: reg.IntArray()}},
		{Op: OpRef, Field: 1, FieldName: "next", Target: np},
	}
	return codecShape{"bag8", head, &Plan{Site: "Bag.send.1", Kind: model.FRef, Root: np, Reusable: true}}
}

// graphObjects lists the distinct objects reachable from root.
func graphObjects(root *model.Object) []*model.Object {
	seen := map[*model.Object]bool{}
	var out []*model.Object
	var visit func(o *model.Object)
	visit = func(o *model.Object) {
		if o == nil || seen[o] {
			return
		}
		seen[o] = true
		out = append(out, o)
		for _, f := range o.Fields {
			if f.Kind == model.FRef {
				visit(f.O)
			}
		}
		for _, e := range o.Refs {
			visit(e)
		}
	}
	visit(root)
	return out
}

// scribble appends to each of o's payload slices and overwrites every
// element of the result. With cap == len the append moves to a fresh
// array and o, like every other object, is left as it was; a carved
// slice with spare capacity would write into whatever the slab handed
// out next.
func scribble(o *model.Object) {
	overwrite(o.Fields, model.Int(-1))
	overwrite(o.Doubles, -1)
	overwrite(o.Ints, -1)
	overwrite(o.Refs, o)
}

func overwrite[T any](s []T, v T) {
	s = append(s, v)
	for i := range s {
		s[i] = v
	}
}

// TestCarvedSlicesDoNotAlias pins that slices carved from a message's
// slabs cannot reach a neighbour: every field vector and array payload
// of a decoded graph has cap == len, so appending to one object's slice
// and writing through the result changes no other object of its graph
// and nothing of the graph the next message decoded through the pooled
// read context. It covers the class baseline and a planned position on
// a reuse miss (reuse on, no donor), the two paths that carve.
func TestCarvedSlicesDoNotAlias(t *testing.T) {
	reg, shapes := codecShapes()
	shapes = append(shapes, bagShape(reg))
	for _, s := range shapes {
		for _, mode := range []struct {
			name  string
			cfg   Config
			plans []*Plan
		}{
			{"class", Config{Mode: ModeClass}, nil},
			{"site-miss", Config{Mode: ModeSite, CycleElim: true, Reuse: true}, []*Plan{s.plan}},
		} {
			t.Run(s.name+"/"+mode.name, func(t *testing.T) {
				var c stats.Counters
				m := wire.NewMessage(0)
				if _, err := WriteValues(m, []model.Value{model.Ref(s.root)}, mode.plans, mode.cfg, &c); err != nil {
					t.Fatal(err)
				}
				decode := func() *model.Object {
					vals, _, _, err := ReadValuesScratch(wire.FromBytes(m.Bytes()), reg, 1, mode.plans, mode.cfg, nil, nil, &c)
					if err != nil {
						t.Fatal(err)
					}
					if !testkit.DeepEqual(vals[0].O, s.root) {
						t.Fatal("decoded graph differs from the one written")
					}
					return vals[0].O
				}
				first, second := decode(), decode()
				objs := graphObjects(first)
				for _, o := range append(objs, graphObjects(second)...) {
					if cap(o.Fields) != len(o.Fields) || cap(o.Doubles) != len(o.Doubles) ||
						cap(o.Ints) != len(o.Ints) || cap(o.Refs) != len(o.Refs) {
						t.Fatalf("%s: carved slice with spare capacity (fields %d/%d doubles %d/%d ints %d/%d refs %d/%d)",
							o.Class.Name, len(o.Fields), cap(o.Fields), len(o.Doubles), cap(o.Doubles),
							len(o.Ints), cap(o.Ints), len(o.Refs), cap(o.Refs))
					}
				}
				for i, o := range objs {
					scribble(o)
					if !testkit.DeepEqual(first, s.root) {
						t.Fatalf("scribbling object %d (%s) changed the graph it was decoded with", i, o.Class.Name)
					}
					if !testkit.DeepEqual(second, s.root) {
						t.Fatalf("scribbling object %d (%s) of one message changed the next message's graph", i, o.Class.Name)
					}
				}
			})
		}
	}
}
