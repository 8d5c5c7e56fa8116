// Command rmibench regenerates the paper's evaluation tables
// (Tables 1–8 of "Compiler Optimized Remote Method Invocation").
//
// Usage:
//
//	rmibench               # all tables at test scale
//	rmibench -scale paper  # all tables at paper-like scale (slow)
//	rmibench -table 3      # only Table 3 (implies its stats twin)
//	rmibench -faults       # chaos mode: run the workloads over a lossy
//	                       # network and verify exactly-once completion
//	rmibench -faults -drop 0.1 -dup 0.05 -seed 7   # custom fault mix
//	rmibench -chain 8      # chained-dependency workload: virtual
//	                       # chain latency and frames/op of sync
//	                       # chains, then the same chains traced
//	                       # across three nodes
//	rmibench -trace out.json   # traced micro pass: writes a
//	                       # Perfetto-loadable Chrome trace to out.json
//	                       # and prints per-phase p50/p95/p99 latencies
//	rmibench -faults -trace out.json   # chaos with the flight recorder
//	                       # attached: a timeout/partition auto-dumps
//	                       # the recent spans to out.json
package main

import (
	"flag"
	"fmt"
	"os"

	"cormi/internal/harness"
	"cormi/internal/trace"
)

func main() {
	scaleName := flag.String("scale", "test", "workload scale: test | paper")
	table := flag.Int("table", 0, "single table to regenerate (1-8); 0 = all")
	scaling := flag.Bool("scaling", false, "run the multi-CPU scaling extension instead of the paper tables")
	faults := flag.Bool("faults", false, "chaos mode: run LU and the micro benchmarks over a faulty network")
	drop := flag.Float64("drop", -1, "chaos: packet drop probability (default from spec)")
	dup := flag.Float64("dup", -1, "chaos: packet duplication probability")
	reorder := flag.Float64("reorder", -1, "chaos: packet reordering probability")
	corrupt := flag.Float64("corrupt", -1, "chaos: payload corruption probability")
	seed := flag.Int64("seed", 42, "chaos: fault injection seed")
	traceOut := flag.String("trace", "", "write a Perfetto-loadable Chrome trace to this file and print per-phase latency quantiles")
	chain := flag.Int("chain", 0, "chained-dependency workload at this depth, then the same chains traced across three nodes")
	chains := flag.Int("chains", 100, "number of chains for -chain")
	flag.Parse()

	var scale harness.Scale
	switch *scaleName {
	case "test":
		scale = harness.TestScale()
	case "paper":
		scale = harness.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "rmibench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	if *chain > 0 {
		rows, err := harness.RunChain(*chain, *chains)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmibench: chain run failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rows.Format())
		// The distributed-tracing counterpart of the chain workload:
		// sync chains at the same depth, traced across three nodes and
		// reconstructed through /traces.
		dspec := harness.DefaultDTraceSpec()
		dspec.Depth = *chain
		trow, err := harness.RunDTrace(dspec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmibench: dtrace run failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(trow.Format())
		return
	}

	if *faults {
		spec := harness.DefaultChaosSpec(*seed)
		if *drop >= 0 {
			spec.Faults.Drop = *drop
		}
		if *dup >= 0 {
			spec.Faults.Dup = *dup
		}
		if *reorder >= 0 {
			spec.Faults.Reorder = *reorder
		}
		if *corrupt >= 0 {
			spec.Faults.Corrupt = *corrupt
		}
		var traceFile *os.File
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rmibench: %v\n", err)
				os.Exit(1)
			}
			traceFile = f
			// A tracer writes at most one failure dump, so the file
			// loads as a single Chrome trace.
			spec.Tracer = trace.New(trace.Config{FailureDump: f})
		}
		report, err := harness.Chaos(harness.TestScale(), spec)
		if report != nil {
			fmt.Println(report.Format())
		}
		if traceFile != nil {
			if err == nil {
				// No failure dump fired — export the live flight
				// recorder instead so the file is always loadable.
				_ = trace.WriteChrome(traceFile, trace.Local(spec.Tracer.Recent()), map[string]any{"reason": "chaos"})
			}
			traceFile.Close()
			fmt.Println(harness.FormatPhases(spec.Tracer.Attribution()))
			fmt.Printf("chrome trace written to %s (load in Perfetto / chrome://tracing)\n", *traceOut)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmibench: chaos run failed: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *traceOut != "" {
		writeTraceFile(*traceOut)
		return
	}

	if *scaling {
		n, bs := 256, 32
		if *scaleName == "paper" {
			n = 1024
		}
		t, err := harness.LUScaling(n, bs, []int{1, 2, 4, 8})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmibench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(t.Format())
		return
	}

	if *table < 0 || *table > 8 {
		fmt.Fprintf(os.Stderr, "rmibench: no table %d\n", *table)
		os.Exit(2)
	}
	tables, err := harness.Tables(scale, *table)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmibench: %v\n", err)
		os.Exit(1)
	}
	for _, t := range tables {
		fmt.Println(t.Format())
	}
}

// writeTraceFile runs the traced micro pass (2000 sends per workload
// and level: enough calls for a stable p99 row), writes the Chrome
// trace, and prints the per-phase latency summary.
func writeTraceFile(path string) {
	phases, spans, err := harness.RunTraced(2000)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmibench: traced run failed: %v\n", err)
		os.Exit(1)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmibench: %v\n", err)
		os.Exit(1)
	}
	if err := trace.WriteChrome(f, trace.Local(spans), map[string]any{"reason": "rmibench"}); err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "rmibench: writing trace: %v\n", err)
		os.Exit(1)
	}
	f.Close()
	fmt.Print(harness.FormatPhases(phases))
	fmt.Printf("chrome trace written to %s (load in Perfetto / chrome://tracing)\n", path)
}
