package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cormi/internal/serial"
	"cormi/internal/wire"
)

// The driver is a closed loop in one process: each of a workload's
// callers issues its next operation only after the previous one
// returned, so a slower system is offered less load and no queue can
// grow. Every workload gets the same treatment: set-up (several times,
// for setup_s), many short measured trials with tracing off, then one
// traced pass. What is reported per metric is the good-side quartile
// over the trials (see goodQuartile).

type config struct {
	seed      int64
	trials    int
	trialDur  time.Duration
	traceDur  time.Duration // 0 = no traced pass; halved between real calls and replay
	setupReps int
	traceOut  string // directory for span files, "" = none
}

const (
	// stealLimit: a trial during which the hypervisor took more than
	// this share of the CPUs is discarded and run again. In sizing runs
	// steal moved calls/s 2.4x between back-to-back runs of one binary.
	stealLimit = 0.05
	// latCap bounds one caller's latency buffer per trial (4 MB); a
	// trial that fills it ends early instead of reallocating inside the
	// window. Half a second of the fastest workload needs a third of it.
	latCap = 1 << 19
	// spanCap bounds one caller's span buffer; the traced stage ends
	// when it is full (~20k echo operations, plenty for a median).
	spanCap = 1 << 16
	// minTail: a percentile is reported only from samples that leave at
	// least ten beyond it — p99 from 1000, p99.9 from 10000.
	minTailP99, minTailP999 = 1000, 10000
)

// result is everything one workload's run produced.
type result struct {
	workload          string
	metrics           values
	attempted, failed int64
	// problems are reasons the run is not correct beyond failed
	// operations: an exact counter that differed between trials.
	problems []string
	// notes are printed but do not fail the run.
	notes []string
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// closedLoop runs callers goroutines for dur (or until a latency or
// span buffer fills). Operation ids are firstID, firstID+1, ... dealt
// round-robin to the callers. lat[c] receives caller c's latencies of
// correct operations.
func closedLoop(inst instance, callers int, dur time.Duration, lat [][]int64, firstID uint64, bufs []*spanBuf) (attempted, failed, wallNS int64) {
	// Each caller counts in locals and reports once: per-caller slots of
	// one slice would share a cache line between the callers' cores.
	var total, bad atomic.Int64
	var wg sync.WaitGroup
	start := now()
	deadline := start + int64(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var sp *spanBuf
			if bufs != nil {
				sp = bufs[c]
			}
			l := lat[c][:0]
			var n, failed int64
			id := firstID + uint64(c)
			for t := now(); t < deadline && len(l) < cap(l) && !sp.full(); id += uint64(callers) {
				root := sp.begin("op", id, noParent, t)
				s, e, ok := inst.op(c, id, sp, root)
				// Untraced, the operation's own end stamp doubles as the
				// loop clock: two clock reads per operation, not three.
				t = e
				if sp != nil {
					t = now()
					sp.end(root, t)
				}
				n++
				if ok {
					l = append(l, e-s)
				} else {
					failed++
				}
			}
			lat[c] = l
			total.Add(n)
			bad.Add(failed)
		}(c)
	}
	wg.Wait()
	return total.Load(), bad.Load(), now() - start
}

// calibration is hostSpeed's working memory, allocated once.
var calibration = newCalibration()

type trial struct {
	vals              values
	attempted, failed int64
	steal             float64
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// measureTrial runs one untraced trial and turns the deltas of every
// counter the benchmark can read from outside into per-op values.
func measureTrial(inst instance, callers int, dur time.Duration, lat [][]int64, merged []int64, firstID uint64) trial {
	speed := hostSpeed(calibration)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, p0, st0, cpu0 := inst.counters(), wire.Stats(), readCPUTimes(), processCPUNS()

	attempted, failed, wallNS := closedLoop(inst, callers, dur, lat, firstID, nil)

	cpu1, st1, p1, c1 := processCPUNS(), readCPUTimes(), wire.Stats(), inst.counters()
	runtime.ReadMemStats(&m1)

	t := trial{attempted: attempted, failed: failed, steal: stealShare(st0, st1), vals: values{}}
	ops := float64(attempted - failed)
	if ops == 0 {
		return t
	}
	merged = merged[:0]
	for _, l := range lat {
		merged = append(merged, l...)
	}
	slices.Sort(merged)

	v := t.vals
	v["driver.host_speed"] = speed
	v["ops_per_s"] = ops / (float64(wallNS) / 1e9)
	v["op_p50_us"] = us(quantile(merged, 0.50))
	if len(merged) >= minTailP99 {
		v["op_p99_us"] = us(quantile(merged, 0.99))
	}
	if len(merged) >= minTailP999 {
		v["driver.op_p999_us"] = us(quantile(merged, 0.999))
	}
	v["cpu_us_per_op"] = us(cpu1-cpu0) / ops
	v["allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / ops
	v["failed_share"] = float64(failed) / float64(attempted)
	v["runtime.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	v["runtime.gc_cycles_per_kop"] = float64(m1.NumGC-m0.NumGC) / ops * 1000
	v["runtime.gc_pause_share"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / float64(wallNS)
	v["wire.pool_gets_per_op"] = float64(p1.Gets-p0.Gets) / ops

	d := c1.Sub(c0)
	v["wire_bytes_per_op"] = float64(d.WireBytes) / ops
	v["serial.type_bytes_per_op"] = float64(d.TypeBytes) / ops
	v["serial.serializer_calls_per_op"] = float64(d.SerializerCalls) / ops
	v["serial.inlined_writes_per_op"] = float64(d.InlinedWrites) / ops
	v["serial.cycle_tables_per_op"] = float64(d.CycleTables) / ops
	v["serial.cycle_lookups_per_op"] = float64(d.CycleLookups) / ops
	v["serial.alloc_objects_per_op"] = float64(d.AllocObjects) / ops
	v["serial.reused_objects_per_op"] = float64(d.ReusedObjs) / ops
	if n := d.AllocObjects + d.ReusedObjs; n > 0 {
		v["serial.reuse_hit_ratio"] = float64(d.ReusedObjs) / float64(n)
	}
	v["transport.frames_per_op"] = float64(d.NetFrames) / ops
	v["transport.messages_per_op"] = float64(d.Messages) / ops
	v["rmi.calls_per_op"] = float64(d.RemoteRPCs) / ops
	v["rmi.retries_per_op"] = float64(d.Retries) / ops
	v["rmi.timeouts_per_op"] = float64(d.Timeouts) / ops
	return t
}

// threeFifths of n, rounded up: how many discarded trials may be run
// again, and how many trials a --trace 1 run measures.
func threeFifths(n int) int { return (n*3 + 4) / 5 }

// selectTrials applies the host-interference rule to the trials run so
// far (at most want+threeFifths(want)): the want trials with the least steal
// are kept. clean says how many of those stayed under the limit; the
// loop in runWorkload stops as soon as want clean ones exist, so
// clean < len(kept) only when the extra trials ran out.
func selectTrials(all []trial, want int) (kept []trial, clean int) {
	kept = append(kept, all...)
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].steal < kept[j].steal })
	if len(kept) > want {
		kept = kept[:want]
	}
	for _, t := range kept {
		if t.steal <= stealLimit {
			clean++
		}
	}
	return kept, clean
}

// resources are process-wide levels that must return to where they
// were once a workload has closed everything it opened.
type resources struct {
	wireOut, readCtx int64
	goroutines       int
}

func readResources() resources {
	return resources{wire.Stats().Outstanding, serial.ReadCtxStats().Outstanding, runtime.NumGoroutine()}
}

// leakedSince waits (goroutines exit asynchronously after Close, up to
// two seconds) for the levels to return to base and reports what did
// not.
func leakedSince(base resources) resources {
	var d resources
	for wait := time.Millisecond; ; wait *= 2 {
		cur := readResources()
		d = resources{cur.wireOut - base.wireOut, cur.readCtx - base.readCtx, cur.goroutines - base.goroutines}
		if d == (resources{}) || wait > time.Second {
			return d
		}
		time.Sleep(wait)
	}
}

// runWorkload sets a workload up, measures it and tears it down.
func runWorkload(w workload, cfg config) (*result, error) {
	res := &result{workload: w.name, metrics: values{}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	base := readResources()

	var inst instance
	var setups []float64
	for i := 0; i < cfg.setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := now()
		var err error
		if inst, err = w.setup(cfg.seed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, float64(now()-t0)/1e9)
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()

	lat := make([][]int64, w.callers)
	for c := range lat {
		lat[c] = make([]int64, 0, latCap)
	}
	merged := make([]int64, 0, latCap*w.callers)

	var all, kept []trial
	var miscounted int64
	clean := 0
	for i := 0; i < cfg.trials+threeFifths(cfg.trials) && clean < cfg.trials; i++ {
		t := measureTrial(inst, w.callers, cfg.trialDur, lat, merged, uint64(i+1)<<32)
		// Exactly-once: executions that do not match calls are failures.
		if m := inst.miscounted(); m > miscounted {
			t.failed += m - miscounted
			miscounted = m
		}
		all = append(all, t)
		kept, clean = selectTrials(all, cfg.trials)
	}
	if clean < len(kept) {
		res.notes = append(res.notes, fmt.Sprintf("only %d of %d trials stayed under %.0f%% steal; kept the %d with the least", clean, len(all), stealLimit*100, len(kept)))
	}
	var perTrial []values
	maxSteal := 0.0
	for _, t := range kept {
		perTrial = append(perTrial, t.vals)
		res.attempted += t.attempted
		res.failed += t.failed
		if t.steal > maxSteal {
			maxSteal = t.steal
		}
	}
	res.metrics = reduceTrials(perTrial, betterOf())
	res.metrics["driver.steal_share"] = maxSteal
	res.metrics["driver.trials_discarded"] = float64(len(all) - len(kept))
	res.metrics["driver.callers"] = float64(w.callers)
	res.metrics["driver.procs"] = float64(w.procs)
	res.metrics["setup_s"] = goodQuartile(setups, "lower")
	if res.attempted > 0 {
		res.metrics["failed_share"] = float64(res.failed) / float64(res.attempted)
	}
	for name, v := range inst.gauges() {
		res.metrics[name] = v
	}
	for _, m := range allMetrics() {
		if !m.Exact {
			continue
		}
		for _, t := range perTrial[1:] {
			if a, b := perTrial[0][m.Name], t[m.Name]; a != b {
				res.problems = append(res.problems, fmt.Sprintf("exact counter %s differs between trials: %v vs %v", m.Name, a, b))
				break
			}
		}
	}

	if cfg.traceDur > 0 {
		spans, err := tracedPass(inst, w, cfg, lat, res.metrics)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
		if cfg.traceOut != "" {
			if err := writeSpans(cfg.traceOut, w.name, spans); err != nil {
				return nil, err
			}
		}
	}

	inst.close()
	closed = true
	leaked := leakedSince(base)
	res.metrics["wire.pool_outstanding"] = float64(leaked.wireOut)
	res.metrics["runtime.goroutines_leaked"] = float64(leaked.goroutines)
	if leaked != (resources{}) {
		res.notes = append(res.notes, fmt.Sprintf("WARNING: resources not balanced after Close: %d frame buffers, %d read contexts, %d goroutines", leaked.wireOut, leaked.readCtx, leaked.goroutines))
	}
	return res, nil
}

// tracedPass produces the per-layer timings. Stage one is the measured
// loop again with spans on: a root span "op" per operation, the real
// call(s) as children, the service method under them. Its throughput
// against the untraced trials is the tracing overhead. Stage two
// replays, on one goroutine, the layers under the call for operations
// sampled from stage one, as children of a root span "replay" with the
// same operation id.
func tracedPass(inst instance, w workload, cfg config, lat [][]int64, m values) ([]span, error) {
	const idBase = uint64(1) << 48
	bufs := make([]*spanBuf, w.callers)
	for c := range bufs {
		bufs[c] = newSpanBuf(spanCap)
	}
	callee := newSharedSpanBuf(spanCap*w.callers, "rmi.invoke")
	inst.traceCallee(callee)
	// Stage one runs in slices, so that its throughput is reduced the
	// way the untraced trials' is before the two are compared.
	const slices = 4
	var rates []float64
	full := func() bool {
		for _, b := range bufs {
			if b.full() {
				return true
			}
		}
		return false
	}
	for i := uint64(0); i < slices && !full(); i++ {
		n, failed, wallNS := closedLoop(inst, w.callers, cfg.traceDur/2/slices, lat, idBase+i<<32, bufs)
		if n == 0 || failed > 0 {
			inst.traceCallee(nil)
			return nil, fmt.Errorf("%d of %d traced operations failed", failed, n)
		}
		rates = append(rates, float64(n)/(float64(wallNS)/1e9))
	}
	inst.traceCallee(nil)
	if base := m["ops_per_s"]; base > 0 {
		m["driver.trace_overhead_share"] = 1 - goodQuartile(rates, "higher")/base
	}

	// Each replay records at most 1 + 5 spans x 2 frames x calls; leave
	// room for a whole one so no operation is half recorded.
	const replayRoom = 64
	replayBuf := newSpanBuf(spanCap)
	var ids []uint64
	for _, b := range bufs {
		for _, r := range b.spans {
			if r.parent == noParent {
				ids = append(ids, r.op)
			}
		}
	}
	deadline := now() + int64(cfg.traceDur/2)
	for i := 0; i < len(ids); i += len(ids)/1000 + 1 {
		if now() > deadline || cap(replayBuf.spans)-len(replayBuf.spans) < replayRoom {
			break
		}
		if err := inst.replay(ids[i], replayBuf); err != nil {
			return nil, err
		}
	}
	spans := mergeSpans(append(bufs, callee, replayBuf)...)
	layerTimings(spans, m, w.innerLoops)
	return spans, nil
}

// layerTimings reduces spans to the per-layer timing metrics: for each
// span name the median over operations of that name's time per op.
// innerLoops is workload.innerLoops.
func layerTimings(spans []span, m values, innerLoops int) {
	sums := perOpSums(spans)
	p50 := func(name string) float64 { return us(quantile(sums[name].perOp, 0.5)) }
	// perFrame divides a per-op sum by the spans per op that made it
	// up: seal, unseal and hop happen once per frame.
	perFrame := func(name string) float64 {
		a := sums[name]
		if len(a.perOp) == 0 {
			return 0
		}
		return p50(name) * float64(len(a.perOp)) / float64(a.spans)
	}
	set := func(name string, v float64) {
		if v != 0 {
			m[name] = v
		}
	}

	if compile := p50("core.compile"); compile > 0 {
		stages := 0.0
		for span, metric := range map[string]string{
			"lang.parse": "lang.parse_us", "lang.check": "lang.check_us", "ir.lower": "ir.lower_us",
			"ir.validate": "ir.validate_us", "heap.analyze": "heap.analyze_us",
		} {
			m[metric] = p50(span)
			stages += p50(span)
		}
		m["core.sites_us"] = compile - stages
		m["driver.ladder_coverage"] = stages / compile
		return
	}

	write, read := p50("serial.write"), p50("serial.read")
	ladder := write + read + p50("wire.seal") + p50("wire.unseal") + p50("transport.hop")
	set("serial.write_us", write)
	set("serial.read_us", read)
	set("wire.seal_us", perFrame("wire.seal"))
	set("wire.unseal_us", perFrame("wire.unseal"))
	set("transport.hop_us", perFrame("transport.hop"))

	invoke, body := p50("rmi.invoke"), p50("app.body")
	set("app.body_us", body)
	op := m["op_p50_us"]
	switch {
	case invoke > 0:
		m["rmi.invoke_us"] = invoke
		m["rmi.self_us"] = invoke - body - ladder
		m["rmi.self_share"] = (invoke - body - ladder) / invoke
		m["driver.ladder_coverage"] = (body + ladder) / invoke
		if op > 0 {
			m["app.share"] = body / op
		}
	case op > 0 && len(sums["wire.seal"].perOp) > 0:
		// The op makes its calls itself (lu_tcp): price them with the
		// ladder of one representative call and call the rest
		// application. Each closed loop inside the op waits for its
		// share of the calls, not for all of them.
		a := sums["wire.seal"]
		callsPerReplay := float64(a.spans) / float64(len(a.perOp)) / 2
		m["app.share"] = 1 - m["rmi.calls_per_op"]/float64(innerLoops)*(ladder/callsPerReplay)/op
	}
}
