package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cormi/internal/rmi"
)

func TestMain(m *testing.M) {
	rootDir = ".." // go test runs in bench/; the repository is one level up
	os.Exit(m.Run())
}

func TestQuantileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 10}, {0.5, 50}, {0.51, 60}, {0.9, 90}, {0.99, 100}, {1, 100}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d, want 0", got)
	}
	// 1000 samples leave exactly ten beyond p99.
	big := make([]int64, 1000)
	for i := range big {
		big[i] = int64(i + 1)
	}
	if got := quantile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
}

func TestGoodQuartileAndReduceTrials(t *testing.T) {
	in := []float64{50, 10, 40, 20, 30}
	if got := goodQuartile(in, "lower"); got != 20 {
		t.Errorf("lower-is-better quartile of 10..50 = %v, want 20 (2nd best of 5)", got)
	}
	if got := goodQuartile(in, "higher"); got != 40 {
		t.Errorf("higher-is-better quartile of 10..50 = %v, want 40", got)
	}
	if !reflect.DeepEqual(in, []float64{50, 10, 40, 20, 30}) {
		t.Errorf("goodQuartile reordered its input: %v", in)
	}
	twenty := make([]float64, 20)
	for i := range twenty {
		twenty[i] = float64(i + 1)
	}
	if lo, hi := goodQuartile(twenty, "lower"), goodQuartile(twenty, "higher"); lo != 5 || hi != 16 {
		t.Errorf("quartiles of 1..20 = %v and %v, want 5 and 16 (5th best)", lo, hi)
	}
	if got := goodQuartile([]float64{7}, "higher"); got != 7 {
		t.Errorf("quartile of one trial = %v, want 7", got)
	}
	if got := goodQuartile(nil, "lower"); got != 0 {
		t.Errorf("quartile of nothing = %v, want 0", got)
	}
	// Three disturbed trials out of five must not move the reported
	// value; a metric only some trials report is reduced over those.
	got := reduceTrials([]values{
		{"ops_per_s": 100, "op_p99_us": 9},
		{"ops_per_s": 60},
		{"ops_per_s": 40},
		{"ops_per_s": 99, "op_p99_us": 11},
		{"ops_per_s": 70},
	}, map[string]string{"ops_per_s": "higher", "op_p99_us": "lower"})
	if want := (values{"ops_per_s": 99, "op_p99_us": 9}); !reflect.DeepEqual(got, want) {
		t.Errorf("reduceTrials = %v, want %v", got, want)
	}
}

func TestParseProcStat(t *testing.T) {
	const full = "cpu  100 5 50 800 20 0 5 20 7 0\ncpu0 50 2 25 400 10 0 2 10 3 0\nintr 12345\n"
	if got, want := parseProcStat(full), (cpuTimes{total: 1000, steal: 20}); got != want {
		t.Errorf("full line: %+v, want %+v (guest columns are not added again)", got, want)
	}
	// Kernels before 2.6.11 have no steal column; other systems no file.
	if got, want := parseProcStat("cpu  100 5 50 800 20 0 5\n"), (cpuTimes{total: 980}); got != want {
		t.Errorf("no steal column: %+v, want %+v", got, want)
	}
	for _, bad := range []string{"", "cpu0 1 2 3\n", "cpu  1 x 3\n", "cpu\n"} {
		if got := parseProcStat(bad); got != (cpuTimes{}) {
			t.Errorf("parseProcStat(%q) = %+v, want zero", bad, got)
		}
	}
	before, after := cpuTimes{total: 1000, steal: 20}, cpuTimes{total: 1400, steal: 236}
	if got := stealShare(before, after); got != 0.54 {
		t.Errorf("stealShare = %v, want 0.54", got)
	}
	if got := stealShare(cpuTimes{}, cpuTimes{}); got != 0 {
		t.Errorf("stealShare without /proc/stat = %v, want 0", got)
	}
}

func TestSelectTrialsKeepsLeastSteal(t *testing.T) {
	mk := func(steals ...float64) []trial {
		var ts []trial
		for i, s := range steals {
			ts = append(ts, trial{steal: s, attempted: int64(i)})
		}
		return ts
	}
	if threeFifths(5) != 3 || threeFifths(20) != 12 || threeFifths(1) != 1 {
		t.Errorf("threeFifths: %d %d %d, want 3 12 1", threeFifths(5), threeFifths(20), threeFifths(1))
	}
	kept, clean := selectTrials(mk(0.01, 0.30, 0.02, 0.00), 3)
	if clean != 3 || len(kept) != 3 {
		t.Fatalf("kept %d clean %d, want 3 and 3", len(kept), clean)
	}
	for _, k := range kept {
		if k.steal > stealLimit {
			t.Errorf("kept a trial with steal %v", k.steal)
		}
	}
	// Extra trials exhausted: the least-stolen are kept and counted.
	kept, clean = selectTrials(mk(0.5, 0.2, 0.01, 0.4), 3)
	if clean != 1 || len(kept) != 3 || kept[2].steal != 0.4 {
		t.Errorf("noisy host: kept %+v clean %d, want steals 0.01 0.2 0.4 and 1 clean", kept, clean)
	}
}

func TestWithinBound(t *testing.T) {
	for _, c := range []struct {
		a, b, bound, floor float64
		ok                 bool
	}{
		{100, 109, 0.10, 0, true},
		{100, 111, 0.10, 0, false},
		{100, 89, 0.10, 0, false},
		{56, 56, 0, 0, true},   // exact counter
		{56, 57, 0, 0, false},  // exact counter moved
		{0, 0, 0, 0, true},     // a metric that is legitimately 0
		{0, 1, 0.10, 0, false}, // appeared from nothing
		{0.010, 0.040, 0.25, 0.05, true},
		{0.200, 0.300, 0.25, 0.05, false},
	} {
		if _, ok := withinBound(c.a, c.b, c.bound, c.floor); ok != c.ok {
			t.Errorf("withinBound(%v, %v, bound %v, floor %v) = %v, want %v", c.a, c.b, c.bound, c.floor, ok, c.ok)
		}
	}
	if rel, _ := withinBound(200, 150, 1, 0); rel != -0.25 {
		t.Errorf("relative difference = %v, want -0.25", rel)
	}
}

func TestSpanSelfTimeAndParents(t *testing.T) {
	caller := newSpanBuf(16)
	callee := newSharedSpanBuf(16, "rmi.invoke")
	root := caller.begin("op", 7, noParent, 0)
	caller.add("rmi.invoke", "list", 7, root, 10, 40)
	caller.add("rmi.invoke", "array", 7, root, 40, 90)
	caller.end(root, 100)
	callee.add("app.body", "array", 7, parentByContainment, 60, 70) // recorded on another goroutine
	other := caller.begin("op", 8, noParent, 100)
	caller.end(other, 130)

	spans := mergeSpans(caller, nil, callee)
	byName := func(name, note string) span {
		for _, s := range spans {
			if s.Name == name && s.Note == note && s.Op == 7 {
				return s
			}
		}
		t.Fatalf("no span %s/%s", name, note)
		return span{}
	}
	op, list, array, body := byName("op", ""), byName("rmi.invoke", "list"), byName("rmi.invoke", "array"), byName("app.body", "array")
	if list.Parent != op.ID || array.Parent != op.ID {
		t.Errorf("invoke spans not under op: %+v %+v", list, array)
	}
	if body.Parent != array.ID {
		t.Errorf("app.body attached to %d, want the containing invoke %d", body.Parent, array.ID)
	}
	if op.Self != 20 || list.Self != 30 || array.Self != 40 || body.Self != 10 {
		t.Errorf("self times op %d list %d array %d body %d, want 20 30 40 10", op.Self, list.Self, array.Self, body.Self)
	}

	// Overlapping children are not subtracted twice, and a child is
	// clipped to its parent.
	over := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 60},
		{ID: 3, Parent: 1, Start: 40, End: 120},
	}
	computeSelf(over)
	if over[0].Self != 10 {
		t.Errorf("self with overlapping children = %d, want 10", over[0].Self)
	}

	sums := perOpSums(spans)
	if got := sums["rmi.invoke"]; !reflect.DeepEqual(got.perOp, []int64{80}) || got.spans != 2 {
		t.Errorf("rmi.invoke per op = %+v, want one op of 80 from 2 spans", got)
	}
	if got := sums["op"].perOp; !reflect.DeepEqual(got, []int64{30, 100}) {
		t.Errorf("op per op = %v, want [30 100]", got)
	}

	// A full buffer drops spans instead of growing inside the window.
	tiny := newSpanBuf(1)
	tiny.add("a", "", 1, noParent, 0, 1)
	if idx := tiny.begin("b", 1, noParent, 1); idx != noParent || !tiny.full() || len(tiny.spans) != 1 {
		t.Errorf("full buffer accepted a span")
	}
	var off *spanBuf // tracing off
	off.add("a", "", 1, off.begin("b", 1, noParent, 0), 0, 1)
	off.end(noParent, 1)
	if off.full() {
		t.Errorf("nil buffer reports full")
	}
}

func TestLayerTimingsLadderArithmetic(t *testing.T) {
	// One op: a 100 ns call with a 10 ns body; the replay explains 60.
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 110},
		{ID: 2, Parent: 1, Op: 1, Name: "rmi.invoke", Start: 0, End: 100},
		{ID: 3, Parent: 2, Op: 1, Name: "app.body", Start: 50, End: 60},
		{ID: 4, Op: 1, Name: "replay", Start: 200, End: 300},
		{ID: 5, Parent: 4, Op: 1, Name: "serial.write", Start: 200, End: 210},
		{ID: 6, Parent: 4, Op: 1, Name: "wire.seal", Start: 210, End: 212},
		{ID: 7, Parent: 4, Op: 1, Name: "wire.seal", Start: 212, End: 216},
		{ID: 8, Parent: 4, Op: 1, Name: "transport.hop", Start: 220, End: 230},
		{ID: 9, Parent: 4, Op: 1, Name: "transport.hop", Start: 230, End: 240},
		{ID: 10, Parent: 4, Op: 1, Name: "wire.unseal", Start: 240, End: 242},
		{ID: 11, Parent: 4, Op: 1, Name: "wire.unseal", Start: 242, End: 244},
		{ID: 12, Parent: 4, Op: 1, Name: "serial.read", Start: 250, End: 270},
	}
	m := values{"op_p50_us": 0.2}
	layerTimings(spans, m, 1)
	near := func(name string, want float64) {
		t.Helper()
		if got := m[name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("serial.write_us", 0.010)
	near("serial.read_us", 0.020)
	near("wire.seal_us", 0.003) // 6 ns over 2 frames
	near("transport.hop_us", 0.010)
	near("rmi.invoke_us", 0.100)
	near("rmi.self_us", 0.030) // 100 − 10 body − (10+20+6+4+20) ladder
	near("rmi.self_share", 0.30)
	near("driver.ladder_coverage", 0.70)
	near("app.share", 0.05)
}

// TestBenchmarkJSONMatchesDictionary holds BENCHMARK.json to the metric
// and workload dictionary in this package.
func TestBenchmarkJSONMatchesDictionary(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(rootDir, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	// 4 + 22 runs per workload, with set-up and two builds, in 3420 s.
	if runs := 4 + 22*len(doc.Workloads); float64(runs)*(float64(doc.RunSeconds)+8)+120 > 3420 {
		t.Errorf("%d runs of %d s do not fit the driver's 3420 s", runs, doc.RunSeconds)
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads()", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: %+v vs %s (why of %d chars)", i, doc.Workloads[i], w.name, len(w.why))
		}
	}
	check := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the dictionary", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: %+v vs dictionary %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s[%d] %s: bound %v vs dictionary %v", kind, i, d.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, gatedMetrics(), true)
	check("per_layer", doc.PerLayer, layerMetrics(), false)
}

// TestFailedCheckReachesFailedShare corrupts one output check (expect a
// list of 99) and demands that every operation is counted as failed.
func TestFailedCheckReachesFailedShare(t *testing.T) {
	inst, err := newMicro(1, rmi.LevelSiteReuseCycle)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	inst.(*microInst).wantLen = 99
	lat := [][]int64{make([]int64, 0, 1024)}
	tr := measureTrial(inst, 1, 10*time.Millisecond, lat, make([]int64, 0, 1024), 1)
	if tr.attempted == 0 || tr.failed != tr.attempted {
		t.Fatalf("corrupted check: %d of %d operations failed, want all", tr.failed, tr.attempted)
	}
	if len(lat[0]) != 0 {
		t.Errorf("failed operations contributed %d latencies", len(lat[0]))
	}
}

// TestQuickSmoke runs the whole suite at -quick scale with every check
// on. It asserts structure and counts only — nothing about time.
func TestQuickSmoke(t *testing.T) {
	cfg := quickConfig(404)
	cfg.traceOut = t.TempDir()
	var out bytes.Buffer
	runs, err := runSuite(&out, cfg, 1)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	results := runs[0]
	for _, w := range workloads() {
		r := results[w.name]
		if r == nil || !r.correct() || r.attempted == 0 {
			t.Fatalf("%s: %+v", w.name, r)
		}
		for _, d := range gatedMetrics() {
			if !(r.metrics[d.Name] > 0) {
				t.Errorf("%s: gated metric %s = %v, must be positive on every workload", w.name, d.Name, r.metrics[d.Name])
			}
		}
		// The span file parses, every parent exists within the same
		// operation, and no self time is negative.
		raw, err := os.ReadFile(filepath.Join(cfg.traceOut, w.name+".spans.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct{ Spans []span }
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s spans: %v", w.name, err)
		}
		if len(doc.Spans) == 0 {
			t.Errorf("%s: no spans", w.name)
		}
		names := map[string]bool{}
		for _, s := range doc.Spans {
			names[s.Name] = true
			if s.Parent != 0 && (s.Parent > len(doc.Spans) || doc.Spans[s.Parent-1].Op != s.Op) {
				t.Fatalf("%s: span %+v has no parent in its operation", w.name, s)
			}
			if s.Self < 0 || s.End < s.Start {
				t.Fatalf("%s: span %+v", w.name, s)
			}
		}
		want := []string{"op", "replay", "serial.write", "wire.seal", "transport.hop", "wire.unseal", "serial.read"}
		switch w.name {
		case "compile":
			want = []string{"op", "core.compile", "replay", "lang.parse", "lang.check", "ir.lower", "ir.validate", "heap.analyze"}
		case "lu_tcp":
		default:
			want = append(want, "rmi.invoke", "app.body")
		}
		for _, n := range want {
			if !names[n] {
				t.Errorf("%s: no %s span", w.name, n)
			}
		}
	}

	// The paper's shape, in counts that repeat exactly.
	planned, dynamic := results["micro_chan"].metrics, results["micro_chan_class"].metrics
	if !(planned["wire_bytes_per_op"] < dynamic["wire_bytes_per_op"]) {
		t.Errorf("planned wire bytes %v not below dynamic %v", planned["wire_bytes_per_op"], dynamic["wire_bytes_per_op"])
	}
	if !(planned["allocs_per_op"]*10 < dynamic["allocs_per_op"]) {
		t.Errorf("planned allocs/op %v not 10x below dynamic %v", planned["allocs_per_op"], dynamic["allocs_per_op"])
	}
	if planned["serial.type_bytes_per_op"] != 0 || dynamic["serial.type_bytes_per_op"] == 0 ||
		planned["serial.reuse_hit_ratio"] != 1 || planned["serial.cycle_tables_per_op"] >= dynamic["serial.cycle_tables_per_op"] {
		t.Errorf("optimisations not visible in the counters: planned %v dynamic %v", planned, dynamic)
	}
	if _, ok := planned["serial.opt_speedup"]; !ok {
		t.Errorf("micro_chan did not report serial.opt_speedup")
	}
	for name, calls := range map[string]float64{"echo_chan": 1, "echo_tcp": 1, "micro_chan": 2, "lu_tcp": 1608, "compile": 0} {
		if got := results[name].metrics["rmi.calls_per_op"]; got != calls {
			t.Errorf("%s: rmi.calls_per_op = %v, want %v", name, got, calls)
		}
	}
	if got := results["compile"].metrics["heap.functions"]; got != 360 {
		t.Errorf("compile: heap.functions = %v", got)
	}
}
