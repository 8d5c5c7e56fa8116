package micro

import (
	"testing"

	"cormi/internal/apps/appkit"
	"cormi/internal/core"
	"cormi/internal/model"
	"cormi/internal/rmi"
	"cormi/internal/testkit"
	"cormi/internal/trace"
)

// allocTier is one tier of the full RMI path: the optimization level
// the call site runs at, how the tracer
// is configured (nil: none), how many calls reach its steady state, the
// per-invocation allocation budget (plus the workload's slab kinds when
// slabs is set), and a post-condition proving the measured run
// exercised the tier it names.
type allocTier struct {
	level  rmi.OptLevel
	tracer *trace.Config
	warmup int
	budget float64
	slabs  bool
	after  func(t *testing.T, tr *trace.Tracer)
}

var allocTiers = map[string]allocTier{
	// No tracer. Both sites are leaves, so the callee runs each call
	// as an upcall in its receive loop's reusable invocation record,
	// and nothing is left: 0.00 measured (1.00 when every call took a
	// record of its own to an executor, under a budget of 2.0). The
	// serialize/send/receive path itself is allocation free (see
	// serial.TestPureHotPathZeroAllocs), and AllocsPerRun counts whole
	// allocations per call, so one per call anywhere fails.
	"off": {level: rmi.LevelSiteReuseCycle, warmup: 50, budget: 0},

	// The paper's baseline: per-class serialization with fresh
	// allocation on every call. Each decoded message carves its objects,
	// field vectors and array payloads from its own slabs, and the
	// call-site side remembers how much the last message carved, so in
	// steady state a call pays exactly one chunk per slab kind its graph
	// uses: 2 measured on the 100-node list (objects, field vectors), 3
	// on the 16x16 array (objects, the row references, the doubles). The
	// level changes the codec, not the dispatch: these leaf calls run as
	// upcalls here too (the invocation record made it 3 and 4, under a
	// budget of 1.0 plus the slabs). One allocation per object and per
	// field vector or array cost 202 and 36; a doubling chunk series
	// from eight elements, 10 on both.
	"class": {level: rmi.LevelClass, warmup: 50, budget: 0, slabs: true},

	// Tail-latency attribution fully live: the per-(site, phase) and
	// end-to-end histograms every span close feeds, which are also the
	// site's blame. The pooled span pair's lifecycle fits the untraced
	// budget. `make verify-attrib` gates on it.
	"attribution": {
		level:  rmi.LevelSiteReuseCycle,
		tracer: &trace.Config{},
		warmup: 50, budget: 0,
		after: func(t *testing.T, tr *trace.Tracer) {
			var site *trace.SiteAttribution
			attr := tr.Attribution()
			for i := range attr {
				if attr[i].Calls > 0 {
					site = &attr[i]
				}
			}
			if site == nil {
				t.Fatal("no attributed site after the measured run")
			}
			if len(site.Phases) == 0 {
				t.Error("no phase histograms recorded by the measured calls")
			}
			if phase, _ := site.TopBlame(); phase == "" {
				t.Error("no top blame derived from the measured calls")
			}
		},
	},

	// Distributed-trace sampling armed but near-never firing: the head-
	// sampling decision (one atomic tick + modulo) runs on every root
	// call and the trace-context branch of the frame writer is live but
	// not taken. The first root call samples (tick 0), no call in the
	// measured window does, and arming must cost the hot path nothing:
	// the budget is the attribution tier's. `make verify-dtrace` gates
	// on it.
	"armed": {
		level:  rmi.LevelSiteReuseCycle,
		tracer: &trace.Config{SampleEvery: 1 << 40},
		warmup: 50, budget: 0,
		after: func(t *testing.T, tr *trace.Tracer) {
			if retained, _, _ := tr.TraceStoreStats(); retained != 1 {
				t.Errorf("%d traces retained, want exactly the first warmup call's", retained)
			}
		},
	},

	// Every call sampled: trace-ID allocation, span identity stamping,
	// the 17-byte wire context on the call frame, and both spans'
	// insertion into the bounded per-trace store. The warm-up runs past
	// the store's MaxTraces so eviction recycles buckets and the steady
	// state matches the untraced path's 0 allocs/op (the FIFO order
	// array reallocates only amortized); the budget leaves headroom for
	// that and still fails on real growth (a per-span copy, an unpooled
	// buffer).
	"sampled": {
		level:  rmi.LevelSiteReuseCycle,
		tracer: &trace.Config{SampleEvery: 1},
		warmup: 300, budget: 1.0,
		after: func(t *testing.T, tr *trace.Tracer) {
			retained, evicted, dropped := tr.TraceStoreStats()
			if retained == 0 || evicted == 0 {
				t.Errorf("store retained=%d evicted=%d; the measured run should cycle the FIFO", retained, evicted)
			}
			if dropped != 0 {
				t.Errorf("%d spans dropped; single-span traces should never hit the per-trace cap", dropped)
			}
		},
	},
}

// hotWorkload is a program with one remote call site svc.send and the
// argument graph the steady-state calls ship.
type hotWorkload struct {
	src, svc string
	arg      func(*testing.T, *core.Result, *model.Registry) *model.Object
	// slabKinds is how many of the decoder's slabs a fresh decode of
	// the argument graph carves from.
	slabKinds int
}

// Table 1's argument: a 100-node list.
var linkedList100 = hotWorkload{LinkedListSrc, "Foo", func(t *testing.T, res *core.Result, _ *model.Registry) *model.Object {
	nodeClass, ok := res.ModelClass("LinkedList")
	if !ok {
		t.Fatal("LinkedList class missing")
	}
	var head *model.Object
	for i := 0; i < 100; i++ {
		x := model.New(nodeClass)
		x.Fields[0] = model.Ref(head)
		head = x
	}
	return head
}, 2}

// Table 2's argument: a double[16][16].
var array16x16 = hotWorkload{ArrayBenchSrc, "ArrayBench", func(_ *testing.T, _ *core.Result, reg *model.Registry) *model.Object {
	arr := model.NewArray(reg.MustByName("double[][]"), 16)
	for i := range arr.Refs {
		row := model.NewArray(reg.DoubleArray(), 16)
		for j := range row.Doubles {
			row.Doubles[j] = float64(i + j)
		}
		arr.Refs[i] = row
	}
	return arr
}, 3}

// measureTier sets up a two-node cluster once — the workload's call
// site registered at the tier's level, the tier's tracer attached —
// and holds steady-state invocations, measured in isolation, to the
// tier's budget.
func measureTier(t *testing.T, tier string, w hotWorkload) {
	if testkit.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	spec := allocTiers[tier]
	var tr *trace.Tracer
	var opts []rmi.Option
	if spec.tracer != nil {
		tr = trace.New(*spec.tracer)
		opts = append(opts, rmi.WithTracer(tr))
	}
	cluster := rmi.New(2, opts...)
	defer cluster.Close()
	res, err := core.CompileInto(w.src, cluster.Registry)
	if err != nil {
		t.Fatal(err)
	}
	si, err := appkit.SoleSite(res, w.svc+".send")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := appkit.Register(cluster, spec.level, si)
	if err != nil {
		t.Fatal(err)
	}
	ref := cluster.Node(1).Export(&rmi.Service{Name: w.svc, Methods: map[string]rmi.Method{
		"send": func(call *rmi.Call, args []model.Value) []model.Value { return nil },
	}})

	caller := cluster.Node(0)
	argv := []model.Value{model.Ref(w.arg(t, res, cluster.Registry))}
	invoke := func() {
		if _, err := cs.Invoke(caller, ref, argv); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < spec.warmup; i++ {
		invoke() // reach pool/reuse-cache (and tracer) steady state
	}
	budget := spec.budget
	if spec.slabs {
		budget += float64(w.slabKinds)
	}
	avg := testing.AllocsPerRun(300, invoke)
	t.Logf("tier %s: %.2f allocs per invocation", tier, avg)
	if avg > budget {
		t.Fatalf("tier %s: %.2f allocs per steady-state invocation, budget %.1f", tier, avg, budget)
	}
	if spec.after != nil {
		spec.after(t, tr)
	}
}

// TestSteadyStateAllocs pins the allocation budget of the two paper
// micro-benchmarks with no instrumentation attached, fully optimized
// and at the class-level baseline.
func TestSteadyStateAllocs(t *testing.T) {
	t.Run("array2d", func(t *testing.T) { measureTier(t, "off", array16x16) })
	t.Run("linkedlist", func(t *testing.T) { measureTier(t, "off", linkedList100) })
	t.Run("array2d/class", func(t *testing.T) { measureTier(t, "class", array16x16) })
	t.Run("linkedlist/class", func(t *testing.T) { measureTier(t, "class", linkedList100) })
}

// The instrumented tiers, on the linked list. Each keeps the name its
// Makefile gate (verify-attrib, verify-dtrace) selects.

func TestAttributionSteadyStateAllocs(t *testing.T) {
	measureTier(t, "attribution", linkedList100)
}

func TestUntracedWithSamplingArmedAllocs(t *testing.T) {
	measureTier(t, "armed", linkedList100)
}

func TestSampledPathAllocs(t *testing.T) {
	measureTier(t, "sampled", linkedList100)
}
