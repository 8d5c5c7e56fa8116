// Command bench is this repository's benchmark: six named workloads
// over the RMI runtime and the compiler, measured end to end with
// tracing off and layer by layer in a separate traced pass, with every
// output checked. README.md is the metric and workload dictionary.
//
// Two ways to run it, both through bench/run.sh from the repository
// root (it builds this package into .bench_build/ first):
//
//	bash bench/run.sh -seed 404 [-aa] [-trace-out DIR]
//	    the whole suite, every metric of every workload by name;
//	    -aa runs every workload twice and checks the two against the bounds
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	    one workload, one JSON object on the last line (BENCHMARK.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

const (
	// trialDur: trials are short and many. Interference on a shared
	// host comes in sub-second bursts; twenty half-second trials leave
	// a clean quartile where five two-second ones are all tainted.
	trialDur = 500 * time.Millisecond
	// traceDur is the traced pass: half real calls, half replay.
	traceDur  = 2 * time.Second
	setupReps = 5
)

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and print one JSON result line (BENCHMARK.json contract); empty runs the suite")
		seed     = flag.Int64("seed", 404, "feeds echo integers, array contents and the generated corpus (lu_tcp ignores it)")
		seconds  = flag.Float64("seconds", 15, "measured seconds per workload, in half-second trials")
		trace    = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		aa       = flag.Bool("aa", false, "run every workload twice, back to back, and compare the two runs against each metric's bound")
		quick    = flag.Bool("quick", false, "smoke run: one 100 ms trial per workload, checks on")
		traceOut = flag.String("trace-out", "", "directory for one span file per workload")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	trials := int(*seconds / trialDur.Seconds())
	if trials < 1 {
		trials = 1
	}
	cfg := config{
		seed: *seed, trials: trials, trialDur: trialDur, traceDur: traceDur,
		setupReps: setupReps, traceOut: *traceOut,
	}
	if *quick {
		cfg = quickConfig(*seed)
		cfg.traceOut = *traceOut
	}

	var err error
	switch {
	case *name != "":
		err = runContract(os.Stdout, *name, *trace == 1, cfg)
	case *aa:
		err = runAA(os.Stdout, cfg)
	default:
		_, err = runSuite(os.Stdout, cfg, 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func quickConfig(seed int64) config {
	return config{seed: seed, trials: 1, trialDur: 100 * time.Millisecond, traceDur: 100 * time.Millisecond, setupReps: 1}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("no workload %q", name)
}

// deriveAcross fills the one metric that needs two workloads: the
// paper's headline ratio, dynamic over planned, on the same op.
func deriveAcross(results map[string]*result) {
	planned, dynamic := results["micro_chan"], results["micro_chan_class"]
	if planned != nil && dynamic != nil && planned.metrics["op_p50_us"] > 0 {
		planned.metrics["serial.opt_speedup"] = dynamic.metrics["op_p50_us"] / planned.metrics["op_p50_us"]
	}
}

// runSuite runs every workload reps times and prints every metric by
// name, each run as soon as it is done. The repetitions of one workload
// are back to back — a whole suite apart, the host would have drifted
// further — and results[i] holds repetition i of every workload.
func runSuite(out io.Writer, cfg config, reps int) ([]map[string]*result, error) {
	results := make([]map[string]*result, reps)
	for i := range results {
		results[i] = map[string]*result{}
	}
	failed := 0
	for _, w := range workloads() {
		for _, rs := range results {
			r, err := runWorkload(w, cfg)
			if err != nil {
				return nil, err
			}
			rs[w.name] = r
			deriveAcross(rs)
			printResult(out, r)
			if !r.correct() {
				failed++
			}
		}
	}
	if failed > 0 {
		return results, fmt.Errorf("%d workload runs failed their checks", failed)
	}
	return results, nil
}

func printResult(out io.Writer, r *result) {
	m := r.metrics
	fmt.Fprintf(out, "== %s  callers=%.0f  driver.steal_share=%.4f  driver.trials_discarded=%.0f  attempted=%d failed=%d\n",
		r.workload, m["driver.callers"], m["driver.steal_share"], m["driver.trials_discarded"], r.attempted, r.failed)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := m[d.Name]; ok {
				fmt.Fprintf(out, "  %-32s %16.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "  FAILED: %s\n", p)
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
}

// runAA is the benchmark's own acceptance check: two runs of the same
// code must agree, per workload and end-to-end metric, within the
// metric's bound.
func runAA(out io.Writer, cfg config) error {
	runs, err := runSuite(out, cfg, 2)
	if err != nil {
		return err
	}
	a, b := runs[0], runs[1]
	fails := 0
	fmt.Fprintf(out, "\n%-18s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads() {
		for _, d := range endToEnd {
			va, oka := a[w.name].metrics[d.Name]
			vb, okb := b[w.name].metrics[d.Name]
			if !oka && !okb {
				continue
			}
			rel, ok := withinBound(va, vb, d.Bound, d.Floor)
			verdict := "PASS"
			if !ok || oka != okb {
				verdict = "FAIL"
				fails++
			}
			fmt.Fprintf(out, "%-18s %-20s %14.4f %14.4f %+8.2f%% %6.0f%% %s\n", w.name, d.Name, va, vb, rel*100, d.Bound*100, verdict)
		}
	}
	if fails > 0 {
		return fmt.Errorf("A/A: %d metric comparisons outside their bound", fails)
	}
	fmt.Fprintln(out, "A/A: every end-to-end metric within its bound")
	return nil
}

// runContract is one run under BENCHMARK.json: one workload, and as the
// last line of standard output one JSON object.
func runContract(out io.Writer, name string, layers bool, cfg config) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	defs := gatedMetrics()
	if layers {
		defs = layerMetrics()
		// Part of the seconds goes to the traced pass; the untraced
		// trials that remain give the counts and the overhead baseline.
		cfg.trials = threeFifths(cfg.trials)
	} else {
		cfg.traceDur = 0
	}
	r, err := runWorkload(w, cfg)
	if err != nil {
		return err
	}
	results := map[string]*result{name: r}
	if layers && name == "micro_chan" {
		// serial.opt_speedup needs the same op at level class: one short
		// untraced run of it.
		other, err := findWorkload("micro_chan_class")
		if err != nil {
			return err
		}
		short := cfg
		short.trials, short.setupReps, short.traceDur, short.traceOut = (cfg.trials+2)/3, 1, 0, ""
		if results[other.name], err = runWorkload(other, short); err != nil {
			return err
		}
	}
	deriveAcross(results)
	printResult(os.Stderr, r)

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]metric{}}
	for _, d := range defs {
		// A metric a workload has no layer for reads 0.
		line.Metrics[d.Name] = metric{r.metrics[d.Name], d.Unit}
	}
	return json.NewEncoder(out).Encode(line)
}
