package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"cormi/internal/apps/appkit"
	"cormi/internal/apps/lu"
	"cormi/internal/apps/micro"
	"cormi/internal/core"
	"cormi/internal/harness"
	"cormi/internal/heap"
	"cormi/internal/heap/gen"
	"cormi/internal/ir"
	"cormi/internal/lang"
	"cormi/internal/model"
	"cormi/internal/rmi"
	"cormi/internal/serial"
	"cormi/internal/stats"
	"cormi/internal/transport"
)

// processStart anchors the monotonic clock every latency and span uses.
var processStart = time.Now()

// now is nanoseconds on the monotonic clock (one vDSO read; time.Now
// would also read the wall clock).
func now() int64 { return int64(time.Since(processStart)) }

// workload is one named set of inputs. Later issues refer to workloads
// by these names; BENCHMARK.json repeats name and why.
type workload struct {
	name    string
	why     string
	callers int
	// procs is GOMAXPROCS while the workload runs. The in-process
	// workloads with one caller model machines of which one is busy at
	// a time (the caller waits while the callee works), so they get one
	// CPU: on two, every hand-off between caller and callee goroutine
	// is a cross-thread wake-up, which on the sizing host cost more
	// than the call itself and moved 40% with where the hypervisor put
	// the two vCPUs (micro_chan_class: 12k-21k ops/s on two CPUs,
	// 30.3k-31.8k on one). The workloads that exist for concurrency or
	// for the real transport keep every CPU.
	procs int
	// innerLoops is how many closed loops run inside one operation: 1
	// unless the op is an application with workers of its own. The
	// calls of an op are spread over them when app.share prices them.
	innerLoops int
	// setup builds everything an operation needs — compiled sketches,
	// cluster, exported services, negotiated links, warm caches — and
	// is what setup_s times.
	setup func(seed int64) (instance, error)
}

// instance is a set-up workload, ready for measured operations.
type instance interface {
	// op runs operation id for closed-loop caller c, checks its output,
	// and returns the interval of the timed part. With sp non-nil it
	// records child spans under root.
	op(c int, id uint64, sp *spanBuf, root int) (start, end int64, ok bool)
	// counters is the program's cumulative event count so far.
	counters() stats.Snapshot
	// miscounted is by how much the service-method executions differ
	// from the calls issued so far: exactly-once says 0.
	miscounted() int64
	// gauges are levels and per-op constants the workload itself knows,
	// read at quiescence after the trials.
	gauges() values
	// traceCallee directs spans recorded inside service methods to buf
	// (nil turns them off).
	traceCallee(buf *spanBuf)
	// replay re-runs, for the values of operation id, the layers under
	// the real call, each in its own span.
	replay(id uint64, sp *spanBuf) error
	close()
}

// workloads lists the six in run order; micro_chan_class precedes
// micro_chan so that the latter can report serial.opt_speedup.
func workloads() []workload {
	all := runtime.NumCPU()
	tcpCallers := all
	if tcpCallers > 4 {
		tcpCallers = 4
	}
	return []workload{
		{
			name:       "echo_chan",
			why:        "smallest message on the free in-process transport: rmi dispatch (pending table, receive loop, goroutine per call) is most of the op; bypasses the codec and TCP",
			callers:    1,
			procs:      1,
			innerLoops: 1,
			setup: func(seed int64) (instance, error) {
				return newEcho(seed, 1, 20000, func() (transport.Network, error) { return transport.NewChannelNetwork(2, 1024), nil })
			},
		},
		{
			name:       "echo_tcp",
			why:        "same int echo over loopback TCP with min(nproc,4) callers: two TCP hops are most of the op and concurrency exposes the send mutex and receive lock; bypasses the codec",
			procs:      all,
			innerLoops: 1,
			callers:    tcpCallers,
			setup: func(seed int64) (instance, error) {
				return newEcho(seed, tcpCallers, 4000, tcpLocal)
			},
		},
		{
			name:       "micro_chan_class",
			why:        "identical op at level class: dynamic per-class serializer, type info on the wire, cycle table, fresh allocation; the paper's baseline and the negotiation-fallback path",
			callers:    1,
			procs:      1,
			innerLoops: 1,
			setup:      func(seed int64) (instance, error) { return newMicro(seed, rmi.LevelClass) },
		},
		{
			name:       "micro_chan",
			why:        "paper Tables 1+2 (100-node list, then double[16][16]) at site+reuse+cycle on channels: the planned codec is most of the op and all three paper optimisations fire; bypasses TCP",
			callers:    1,
			procs:      1,
			innerLoops: 1,
			setup:      func(seed int64) (instance, error) { return newMicro(seed, rmi.LevelSiteReuseCycle) },
		},
		{
			name:       "lu_tcp",
			why:        "one whole 256x256 LU factorisation over loopback TCP per op: application compute dilutes RMI cost, 2 KB double[] frames, cluster bring-up and teardown every op",
			callers:    1,
			procs:      all,
			innerLoops: luNodes,
			setup:      newLU,
		},
		{
			name:       "compile",
			why:        "the other half of the paper: cold core.Compile of a seeded 360-function corpus (lang, ir, heap, core); no RMI runs, so RMI work must not move it",
			callers:    1,
			procs:      1,
			innerLoops: 1,
			setup:      newCompile,
		},
	}
}

func tcpLocal() (transport.Network, error) { return transport.NewTCPNetworkLocal(2) }

// warm runs n untimed operations per caller, failing on the first
// wrong output: a workload that cannot pass its own check is not
// measured.
func warm(inst instance, callers, n int) error {
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			for i := 0; i < n; i++ {
				if _, _, ok := inst.op(c, warmIDBase+uint64(i*callers+c), nil, noParent); !ok {
					errs <- fmt.Errorf("warm-up operation %d of caller %d failed its output check", i, c)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// warmIDBase keeps warm-up operation ids apart from measured ones.
const warmIDBase = 1 << 62

// rmiBase is what the RMI workloads share: a cluster, execution and
// call counts for the exactly-once check, and the replay ladder.
type rmiBase struct {
	cluster *rmi.Cluster
	execs   atomic.Int64
	calls   atomic.Int64
	callee  atomic.Pointer[spanBuf]
	lad     *ladder
}

func (b *rmiBase) counters() stats.Snapshot { return b.cluster.Counters.Snapshot() }
func (b *rmiBase) miscounted() int64 {
	d := b.execs.Load() - b.calls.Load()
	if d < 0 {
		d = -d
	}
	return d
}
func (b *rmiBase) gauges() values {
	return values{"rmi.pending_at_end": float64(b.cluster.Overload().PendingCalls)}
}
func (b *rmiBase) traceCallee(buf *spanBuf)            { b.callee.Store(buf) }
func (b *rmiBase) replay(id uint64, sp *spanBuf) error { return b.lad.replay(id, sp) }
func (b *rmiBase) close() {
	b.cluster.Close()
	if b.lad != nil {
		b.lad.close()
	}
}

// body wraps a service method so that it counts its executions and,
// during the traced pass, records an app.body span for the operation
// opOf names.
func (b *rmiBase) body(note string, opOf func(args []model.Value) uint64, m rmi.Method) rmi.Method {
	return func(call *rmi.Call, args []model.Value) []model.Value {
		b.execs.Add(1)
		buf := b.callee.Load()
		if buf == nil {
			return m(call, args)
		}
		t0 := now()
		rets := m(call, args)
		buf.add("app.body", note, opOf(args), parentByContainment, t0, now())
		return rets
	}
}

// noCluster is the part of instance that means nothing to a workload
// which holds no cluster of its own between operations.
type noCluster struct{}

func (noCluster) counters() stats.Snapshot { return stats.Snapshot{} }
func (noCluster) miscounted() int64        { return 0 }
func (noCluster) gauges() values           { return nil }
func (noCluster) traceCallee(*spanBuf)     {}
func (noCluster) close()                   {}

// --- echo_chan, echo_tcp ----------------------------------------------

type echoInst struct {
	rmiBase
	site *rmi.CallSite
	ref  rmi.Ref
	// key makes the echoed integers depend on the seed: operation id
	// sends id^key, which also lets the callee name the operation.
	key  uint64
	args [][]model.Value // one reusable argument slice per caller
}

func newEcho(seed int64, callers, warmOps int, network func() (transport.Network, error)) (instance, error) {
	e := &echoInst{key: rand.New(rand.NewSource(seed)).Uint64(), args: make([][]model.Value, callers)}
	for c := range e.args {
		e.args[c] = make([]model.Value, 1)
	}
	nw, err := network()
	if err != nil {
		return nil, err
	}
	e.cluster = rmi.New(2, rmi.WithNetwork(nw))
	fail := func(err error) (instance, error) {
		e.close()
		return nil, err
	}
	intPlan := []*serial.Plan{serial.PrimitivePlan("Echo.id", model.FInt)}
	e.site, err = e.cluster.NewCallSite(rmi.LevelSite, rmi.SiteSpec{
		Name: "Echo.id.1", Method: "id", ArgPlans: intPlan, RetPlans: intPlan,
	})
	if err != nil {
		return fail(err)
	}
	e.ref = e.cluster.Node(1).Export(&rmi.Service{Name: "Echo", Methods: map[string]rmi.Method{
		"id": e.body("", func(args []model.Value) uint64 { return uint64(args[0].I) ^ e.key },
			func(_ *rmi.Call, args []model.Value) []model.Value { return args }),
	}})
	ladNet, err := network()
	if err != nil {
		return fail(err)
	}
	one := []model.Value{model.Int(int64(e.key))}
	e.lad, err = newLadder(e.cluster.Registry, ladNet, &ladderCall{
		note: "echo", args: one, rets: one, argPlans: intPlan, retPlans: intPlan, cfg: e.site.Config(),
	})
	if err != nil {
		return fail(err)
	}
	if err := warm(e, callers, warmOps/callers); err != nil {
		return fail(err)
	}
	return e, nil
}

func (e *echoInst) op(c int, id uint64, sp *spanBuf, root int) (int64, int64, bool) {
	v := int64(id ^ e.key)
	e.args[c][0] = model.Int(v)
	e.calls.Add(1)
	t0 := now()
	rets, err := e.site.Invoke(e.cluster.Node(0), e.ref, e.args[c])
	t1 := now()
	sp.add("rmi.invoke", "", id, root, t0, t1)
	return t0, t1, err == nil && len(rets) == 1 && rets[0].Kind == model.FInt && rets[0].I == v
}

// --- micro_chan, micro_chan_class --------------------------------------

const (
	listElems = 100
	arraySize = 16
)

type microInst struct {
	rmiBase
	listSite, arraySite *rmi.CallSite
	listRef, arrayRef   rmi.Ref
	listArgs, arrayArgs []model.Value
	// wantLen and wantSum are what the callee must observe; a test sets
	// wantLen wrong to prove a failed check reaches failed_share.
	wantLen int64
	wantSum float64
	// seenLen and seenSum are the callee's last observations. One
	// closed-loop caller means one call in flight, so they belong to
	// the operation cur names.
	seenLen atomic.Int64
	seenSum atomic.Uint64
	cur     atomic.Uint64
}

func newMicro(seed int64, level rmi.OptLevel) (instance, error) {
	m := &microInst{wantLen: listElems}
	m.cluster = rmi.New(2)
	fail := func(err error) (instance, error) {
		m.close()
		return nil, err
	}
	reg := m.cluster.Registry
	compileSite := func(src, callee string) (*core.Result, *core.SiteInfo, *rmi.CallSite, error) {
		res, err := core.CompileInto(src, reg)
		if err != nil {
			return nil, nil, nil, err
		}
		si, err := appkit.SoleSite(res, callee)
		if err != nil {
			return nil, nil, nil, err
		}
		cs, err := appkit.Register(m.cluster, level, si)
		return res, si, cs, err
	}
	listRes, listSI, listSite, err := compileSite(micro.LinkedListSrc, "Foo.send")
	if err != nil {
		return fail(err)
	}
	_, arraySI, arraySite, err := compileSite(micro.ArrayBenchSrc, "ArrayBench.send")
	if err != nil {
		return fail(err)
	}
	m.listSite, m.arraySite = listSite, arraySite

	opOf := func([]model.Value) uint64 { return m.cur.Load() }
	m.listRef = m.cluster.Node(1).Export(&rmi.Service{Name: "Foo", Methods: map[string]rmi.Method{
		"send": m.body("list", opOf, func(_ *rmi.Call, args []model.Value) []model.Value {
			var n int64
			for o := args[0].O; o != nil; o = o.Fields[0].O {
				n++
			}
			m.seenLen.Store(n)
			return nil
		}),
	}})
	m.arrayRef = m.cluster.Node(1).Export(&rmi.Service{Name: "ArrayBench", Methods: map[string]rmi.Method{
		"send": m.body("array", opOf, func(_ *rmi.Call, args []model.Value) []model.Value {
			var s float64
			for _, row := range args[0].O.Refs {
				for _, v := range row.Doubles {
					s += v
				}
			}
			m.seenSum.Store(math.Float64bits(s))
			return nil
		}),
	}})

	nodeClass, ok := listRes.ModelClass("LinkedList")
	if !ok {
		return fail(fmt.Errorf("micro: LinkedList class missing"))
	}
	var head *model.Object
	for i := 0; i < listElems; i++ {
		x := model.New(nodeClass)
		x.Fields[0] = model.Ref(head)
		head = x
	}
	m.listArgs = []model.Value{model.Ref(head)}

	rng := rand.New(rand.NewSource(seed))
	arr := model.NewArray(reg.MustByName("double[][]"), arraySize)
	for i := range arr.Refs {
		row := model.NewArray(reg.DoubleArray(), arraySize)
		for j := range row.Doubles {
			row.Doubles[j] = rng.Float64()
			m.wantSum += row.Doubles[j]
		}
		arr.Refs[i] = row
	}
	m.arrayArgs = []model.Value{model.Ref(arr)}

	lc := func(note string, cs *rmi.CallSite, si *core.SiteInfo, args []model.Value) *ladderCall {
		return &ladderCall{
			note: note, args: args, argPlans: si.ArgPlans, retPlans: si.RetPlans, cfg: cs.Config(),
			ack: si.IgnoreRet && cs.Config().Mode == serial.ModeSite,
		}
	}
	m.lad, err = newLadder(reg, transport.NewChannelNetwork(2, 1024),
		lc("list", listSite, listSI, m.listArgs), lc("array", arraySite, arraySI, m.arrayArgs))
	if err != nil {
		return fail(err)
	}
	if err := warm(m, 1, 2000); err != nil {
		return fail(err)
	}
	return m, nil
}

func (m *microInst) op(_ int, id uint64, sp *spanBuf, root int) (int64, int64, bool) {
	m.cur.Store(id)
	m.seenLen.Store(-1)
	m.seenSum.Store(math.Float64bits(math.NaN()))
	before := m.execs.Load()
	m.calls.Add(2)
	caller := m.cluster.Node(0)
	t0 := now()
	_, err1 := m.listSite.Invoke(caller, m.listRef, m.listArgs)
	t1 := now()
	_, err2 := m.arraySite.Invoke(caller, m.arrayRef, m.arrayArgs)
	t2 := now()
	sp.add("rmi.invoke", "list", id, root, t0, t1)
	sp.add("rmi.invoke", "array", id, root, t1, t2)
	ok := err1 == nil && err2 == nil &&
		m.seenLen.Load() == m.wantLen &&
		math.Float64frombits(m.seenSum.Load()) == m.wantSum &&
		m.execs.Load() == before+2
	return t0, t2, ok
}

// --- lu_tcp -----------------------------------------------------------

const (
	luN, luBlock, luNodes = 256, 16, 2
	luResidualMax         = 1e-8
)

// luInst runs whole LU factorisations; each builds, uses and closes its
// own TCP cluster, so the counters are summed from the runs' outcomes.
// The seed is ignored: lu.Run builds its matrix internally.
type luInst struct {
	noCluster
	total stats.Snapshot
	lad   *ladder
}

func newLU(int64) (instance, error) {
	l := &luInst{}
	// The ladder prices one block fetch (int index out, double[256]
	// back) with the plans the LU sketch compiles to; app.share scales
	// it by the calls one factorisation makes.
	reg := model.NewRegistry()
	res, err := core.CompileInto(lu.Src, reg)
	if err != nil {
		return nil, err
	}
	si := res.SiteByName("Driver.interior.1")
	if si == nil {
		return nil, fmt.Errorf("lu: sketch has no call site Driver.interior.1")
	}
	scratch := rmi.New(1, rmi.WithRegistry(reg))
	cs, err := appkit.Register(scratch, rmi.LevelSiteReuseCycle, si)
	scratch.Close()
	if err != nil {
		return nil, err
	}
	blk := model.NewArray(reg.DoubleArray(), luBlock*luBlock)
	for i := range blk.Doubles {
		blk.Doubles[i] = float64(i)
	}
	nw, err := tcpLocal()
	if err != nil {
		return nil, err
	}
	l.lad, err = newLadder(reg, nw, &ladderCall{
		note: "get_block", args: []model.Value{model.Int(3)}, rets: []model.Value{model.Ref(blk)},
		argPlans: si.ArgPlans, retPlans: si.RetPlans, cfg: cs.Config(),
	})
	if err != nil {
		return nil, err
	}
	if err := warm(l, 1, 1); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *luInst) op(int, uint64, *spanBuf, int) (int64, int64, bool) {
	t0 := now()
	nw, err := tcpLocal()
	if err != nil {
		return t0, now(), false
	}
	out, err := lu.Run(rmi.LevelSiteReuseCycle, luN, luBlock, luNodes, rmi.WithNetwork(nw))
	t1 := now()
	if err != nil { // lu.Run has closed the cluster, and with it nw
		return t0, t1, false
	}
	// total += out.Stats, spelled with the one arithmetic Snapshot has.
	l.total = l.total.Sub(stats.Snapshot{}.Sub(out.Stats))
	return t0, t1, out.MaxResidual <= luResidualMax
}

func (l *luInst) counters() stats.Snapshot            { return l.total }
func (l *luInst) replay(id uint64, sp *spanBuf) error { return l.lad.replay(id, sp) }
func (l *luInst) close()                              { l.lad.close() }

// --- compile ----------------------------------------------------------

const (
	corpusComponents, corpusFuncs = 30, 10
	// fingerprintEvery: Heap.Fingerprint costs about a fifth of the
	// compile it checks, so it runs on every 8th operation; site count
	// and the analysis counters are compared on every one.
	fingerprintEvery = 8
	minijpDir        = "examples/minijp"
)

// rootDir is where the repository's files are; run.sh starts the
// program there, tests point it one level up.
var rootDir = "."

type compileInst struct {
	noCluster
	src         string
	sites       int
	cost        heap.CostStats
	fingerprint uint64
	constants   values
}

// costKey is the part of the analysis cost that two analyses of one
// program must agree on (wall time and worker count may differ).
func costKey(c heap.CostStats) [9]int {
	return [9]int{c.Functions, c.SCCs, c.Components, c.Waves, c.Contexts, c.Nodes, c.StrongKills, c.Iterations, c.BudgetFallbacks}
}

func liveSites(res *core.Result) int {
	n := 0
	for _, s := range res.Sites {
		if !s.Dead {
			n++
		}
	}
	return n
}

func newCompile(seed int64) (instance, error) {
	// The compiler's verdicts on the hand-written corpus must equal the
	// checked-in golden: the reference is a file, not the compiler.
	vm, err := harness.BuildVerdictMatrix(filepath.Join(rootDir, minijpDir), core.Options{})
	if err != nil {
		return nil, err
	}
	golden, err := os.ReadFile(filepath.Join(rootDir, minijpDir, "VERDICTS.golden"))
	if err != nil {
		return nil, err
	}
	if vm.Format() != string(golden) {
		return nil, fmt.Errorf("compile: verdict matrix of %s differs from VERDICTS.golden", minijpDir)
	}

	c := &compileInst{src: gen.Generate(gen.Config{Seed: seed, Components: corpusComponents, FuncsPerComponent: corpusFuncs}).Source}
	res, err := core.Compile(c.src)
	if err != nil {
		return nil, fmt.Errorf("compile: reference compile: %w", err)
	}
	c.sites, c.cost, c.fingerprint = liveSites(res), res.Heap.Cost, res.Heap.Fingerprint()
	elided, granted := 0, 0
	for _, d := range res.Explain("corpus").Sites {
		if d.Dead {
			continue
		}
		if d.CycleCheck.Elided {
			elided++
		}
		if d.RetCycleCheck != nil && d.RetCycleCheck.Elided {
			elided++
		}
		for _, a := range d.Args {
			if a.Reuse.Applied {
				granted++
			}
		}
		if d.Ret != nil && d.Ret.Reuse.Applied {
			granted++
		}
	}
	c.constants = values{
		"lang.source_bytes":     float64(len(c.src)),
		"heap.functions":        float64(c.cost.Functions),
		"heap.regions":          float64(c.cost.Components),
		"heap.waves":            float64(c.cost.Waves),
		"heap.contexts":         float64(c.cost.Contexts),
		"heap.nodes":            float64(c.cost.Nodes),
		"heap.iterations":       float64(c.cost.Iterations),
		"heap.strong_kills":     float64(c.cost.StrongKills),
		"heap.budget_fallbacks": float64(c.cost.BudgetFallbacks),
		"core.sites":            float64(c.sites),
		"core.cycle_elided":     float64(elided),
		"core.reuse_granted":    float64(granted),
	}
	if err := warm(c, 1, 3); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *compileInst) op(_ int, id uint64, sp *spanBuf, root int) (int64, int64, bool) {
	t0 := now()
	res, err := core.Compile(c.src)
	t1 := now()
	sp.add("core.compile", "", id, root, t0, t1)
	if err != nil || liveSites(res) != c.sites || costKey(res.Heap.Cost) != costKey(c.cost) {
		return t0, t1, false
	}
	return t0, t1, id%fingerprintEvery != 0 || res.Heap.Fingerprint() == c.fingerprint
}

func (c *compileInst) gauges() values { return c.constants }

// replay calls the five stages exactly as core.CompileOpts does; what
// core.Compile spends beyond them (model classes, per-site plans and
// verdicts) is core.sites_us.
func (c *compileInst) replay(id uint64, sp *spanBuf) error {
	root := sp.begin("replay", id, noParent, now())
	defer func() { sp.end(root, now()) }()
	t0 := now()
	file, err := lang.Parse(c.src)
	t1 := now()
	if err != nil {
		return err
	}
	prog, err := lang.Check(file)
	t2 := now()
	if err != nil {
		return err
	}
	irProg, err := ir.Lower(prog)
	t3 := now()
	if err != nil {
		return err
	}
	err = ir.Validate(irProg)
	t4 := now()
	if err != nil {
		return err
	}
	heap.AnalyzeOpts(irProg, heap.DefaultOptions())
	t5 := now()
	sp.add("lang.parse", "", id, root, t0, t1)
	sp.add("lang.check", "", id, root, t1, t2)
	sp.add("ir.lower", "", id, root, t2, t3)
	sp.add("ir.validate", "", id, root, t3, t4)
	sp.add("heap.analyze", "", id, root, t4, t5)
	return nil
}
