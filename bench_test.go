package cormi

// One testing.B benchmark per paper table (real wall-clock time of the
// full workload — the Go runtime shows the same relative gains the
// virtual-time tables report), plus ablation benchmarks for the design
// choices DESIGN.md calls out: dynamic vs planned serialization, cycle
// tables, reuse hits vs shape mismatches, and the two transports.

import (
	"fmt"
	"testing"

	"cormi/internal/apps/lu"
	"cormi/internal/apps/micro"
	"cormi/internal/apps/superopt"
	"cormi/internal/apps/webserver"
	"cormi/internal/core"
	"cormi/internal/heap/gen"
	"cormi/internal/model"
	"cormi/internal/rmi"
	"cormi/internal/serial"
	"cormi/internal/stats"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

func levels(b *testing.B, f func(b *testing.B, level rmi.OptLevel)) {
	for _, level := range rmi.AllLevels {
		b.Run(level.String(), func(b *testing.B) { f(b, level) })
	}
}

// BenchmarkTable1LinkedList measures Table 1's workload: sending a
// 100-element linked list. Reported per send.
func BenchmarkTable1LinkedList(b *testing.B) {
	levels(b, func(b *testing.B, level rmi.OptLevel) {
		b.ReportAllocs()
		if _, err := micro.RunLinkedList(level, 100, b.N); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkTable2Array2D measures Table 2's workload: sending a 16×16
// double array. Reported per send.
func BenchmarkTable2Array2D(b *testing.B) {
	levels(b, func(b *testing.B, level rmi.OptLevel) {
		b.ReportAllocs()
		if _, err := micro.RunArray(level, 16, b.N); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkTable3LU measures Table 3's workload: a full distributed LU
// factorization (64×64, 16-blocks, 2 nodes) per iteration.
func BenchmarkTable3LU(b *testing.B) {
	levels(b, func(b *testing.B, level rmi.OptLevel) {
		for i := 0; i < b.N; i++ {
			out, err := lu.Run(level, 64, 16, 2)
			if err != nil {
				b.Fatal(err)
			}
			if out.MaxResidual > 1e-8 {
				b.Fatalf("residual %g", out.MaxResidual)
			}
		}
	})
}

// BenchmarkTable5Superopt measures Table 5's workload: one exhaustive
// ≤2-instruction search per iteration.
func BenchmarkTable5Superopt(b *testing.B) {
	levels(b, func(b *testing.B, level rmi.OptLevel) {
		p := superopt.DefaultParams()
		for i := 0; i < b.N; i++ {
			if _, err := superopt.Search(level, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable7Webserver measures Table 7's workload. Reported per
// page retrieval.
func BenchmarkTable7Webserver(b *testing.B) {
	levels(b, func(b *testing.B, level rmi.OptLevel) {
		p := webserver.DefaultParams()
		p.Requests = b.N
		b.ReportAllocs()
		if _, err := webserver.Run(level, p); err != nil {
			b.Fatal(err)
		}
	})
}

// --- ablation benchmarks ---------------------------------------------

// listFixture builds a 100-node list plus its compiled plan.
func listFixture(b *testing.B) (*model.Registry, *model.Object, *serial.Plan) {
	b.Helper()
	res, err := core.Compile(micro.LinkedListSrc)
	if err != nil {
		b.Fatal(err)
	}
	si := res.SitesOfCallee("Foo.send")[0]
	nodeClass, _ := res.ModelClass("LinkedList")
	var head *model.Object
	for i := 0; i < 100; i++ {
		x := model.New(nodeClass)
		x.Fields[0] = model.Ref(head)
		head = x
	}
	return res.Registry, head, si.ArgPlans[0]
}

// BenchmarkSerializeDynamicVsPlanned isolates §3.1: the same object
// graph through the per-class dynamic serializer vs the call-site plan.
func BenchmarkSerializeDynamicVsPlanned(b *testing.B) {
	reg, head, plan := listFixture(b)
	_ = reg
	var c stats.Counters
	run := func(b *testing.B, plans []*serial.Plan, cfg serial.Config) {
		m := wire.NewMessage(4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Reset()
			if _, err := serial.WriteValues(m, []model.Value{model.Ref(head)}, plans, cfg, &c); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(m.Len()))
	}
	b.Run("dynamic", func(b *testing.B) {
		run(b, nil, serial.Config{Mode: serial.ModeClass})
	})
	b.Run("planned", func(b *testing.B) {
		run(b, []*serial.Plan{plan}, serial.Config{Mode: serial.ModeSite})
	})
	b.Run("planned-nocycle", func(b *testing.B) {
		acyclic := *plan
		acyclic.NeedCycle = false
		run(b, []*serial.Plan{&acyclic}, serial.Config{Mode: serial.ModeSite, CycleElim: true})
	})
}

// BenchmarkReuseHitVsMismatch isolates §3.3's fast path (cached graph
// overwritten in place) against the Figure 13 resize path (shape
// mismatch forces allocation).
func BenchmarkReuseHitVsMismatch(b *testing.B) {
	reg, head, plan := listFixture(b)
	reusable := *plan
	reusable.Reusable = true
	cfg := serial.Config{Mode: serial.ModeSite, Reuse: true}
	var c stats.Counters
	m := wire.NewMessage(4096)
	if _, err := serial.WriteValues(m, []model.Value{model.Ref(head)}, []*serial.Plan{&reusable}, cfg, &c); err != nil {
		b.Fatal(err)
	}
	payload := m.Bytes()

	b.Run("hit", func(b *testing.B) {
		var cached []*model.Object
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, roots, _, err := serial.ReadValuesScratch(wire.FromBytes(payload), reg, 1,
				[]*serial.Plan{&reusable}, cfg, cached, nil, &c)
			if err != nil {
				b.Fatal(err)
			}
			cached = roots
		}
	})
	b.Run("coldalloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := serial.ReadValuesScratch(wire.FromBytes(payload), reg, 1,
				[]*serial.Plan{&reusable}, cfg, nil, nil, &c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTransports compares the in-process channel network with the
// TCP loopback network on an RMI round trip. tcp-parallel drives the
// same echo from GOMAXPROCS callers at once — the handle for profiling
// the transport under contention:
//
//	go test -run '^$' -bench Transports/tcp -cpuprofile cpu.out
func BenchmarkTransports(b *testing.B) {
	bench := func(b *testing.B, nw transport.Network, parallel bool) {
		cluster := rmi.New(2, rmi.WithNetwork(nw))
		defer cluster.Close()
		svc := &rmi.Service{Name: "Echo", Methods: map[string]rmi.Method{
			"id": func(call *rmi.Call, args []model.Value) []model.Value { return args },
		}}
		ref := cluster.Node(1).Export(svc)
		cs := cluster.MustNewCallSite(rmi.LevelSite, rmi.SiteSpec{
			Name: "b.id", Method: "id",
			ArgPlans: []*serial.Plan{serial.PrimitivePlan("b", model.FInt)},
			RetPlans: []*serial.Plan{serial.PrimitivePlan("b", model.FInt)},
		})
		b.ReportAllocs()
		b.ResetTimer()
		if parallel {
			b.RunParallel(func(pb *testing.PB) {
				for i := int64(0); pb.Next(); i++ {
					if _, err := cs.Invoke(cluster.Node(0), ref, []model.Value{model.Int(i)}); err != nil {
						b.Error(err)
						return
					}
				}
			})
			return
		}
		for i := 0; i < b.N; i++ {
			if _, err := cs.Invoke(cluster.Node(0), ref, []model.Value{model.Int(int64(i))}); err != nil {
				b.Fatal(err)
			}
		}
	}
	tcp := func(b *testing.B, parallel bool) {
		nw, err := transport.NewTCPNetworkLocal(2)
		if err != nil {
			b.Fatal(err)
		}
		bench(b, nw, parallel)
	}
	b.Run("channel", func(b *testing.B) {
		bench(b, transport.NewChannelNetwork(2, 256), false)
	})
	b.Run("tcp", func(b *testing.B) { tcp(b, false) })
	b.Run("tcp-parallel", func(b *testing.B) { tcp(b, true) })
}

// BenchmarkCompiler measures the full compile pipeline (parse, check,
// SSA, heap analysis, codegen) on the LU sketch.
func BenchmarkCompiler(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(lu.Src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeapAnalysisScaling checks that the fixpoint stays cheap as
// the program grows (many call sites of the Figure 3 shape).
func BenchmarkHeapAnalysisScaling(b *testing.B) {
	for _, sites := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			src := "class Obj { Obj next; }\nremote class F {\n Obj foo(Obj a) { return a; }\n"
			for i := 0; i < sites; i++ {
				src += fmt.Sprintf(` static void zoo%d() {
					F me = new F();
					Obj t = new Obj();
					for (int i = 0; i < 10; i = i + 1) { t = me.foo(t); }
				}
`, i)
			}
			src += "}\n"
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileScaling runs the whole compiler (lang, ir, heap,
// core) cold over generated corpora of growing size. ns/func should
// stay flat: every stage, buildSites' escape check included, is linear
// in program size. Informational, no gate (`make bench-compile`); the
// machine-independent form is TestCompileAllocsLinearInFunctions.
func BenchmarkCompileScaling(b *testing.B) {
	for _, cfg := range []gen.Config{
		{Seed: 2026, Components: 36, FuncsPerComponent: 8},
		{Seed: 2026, Components: 144, FuncsPerComponent: 8},
		{Seed: 2026, Components: 100, FuncsPerComponent: 20},
	} {
		src := gen.Generate(cfg).Source
		res, err := core.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		funcs := len(res.IR.Funcs)
		b.Run(fmt.Sprintf("funcs=%d", funcs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile(src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(funcs), "ns/func")
		})
	}
}
