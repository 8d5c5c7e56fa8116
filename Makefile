# Tier-1 verification gate: formatting and static checks, a full build,
# a build, vet and test of the bench module (its own module, which the
# root's ./... never compiles), the test suite under the race
# detector (the fault-tolerance layer is concurrency-heavy; -race is
# part of its acceptance criteria), and
# end-to-end smokes of the observability endpoints and the optimizer
# decision explainer. Every fact gated here is deterministic; timings
# and allocations per op are judged by the repo benchmark, parent
# against change in ten alternating pairs: bash bench/run.sh
# (EXPERIMENTS.md). The bench* targets below are informational.
.PHONY: verify test bench bench-transport bench-codec bench-compile obs-smoke explain-smoke verify-precision verify-matrix verify-attrib verify-dtrace verify-analysis verify-allocs fuzz

verify:
	test -z "$$(gofmt -l .)"
	go vet ./...
	go build ./...
	cd bench && go build ./... && go vet ./... && go test ./...
	go test -race ./...
	$(MAKE) verify-allocs
	$(MAKE) obs-smoke
	$(MAKE) explain-smoke
	$(MAKE) verify-precision
	$(MAKE) verify-matrix
	$(MAKE) verify-attrib
	$(MAKE) verify-dtrace
	$(MAKE) verify-analysis
	$(MAKE) fuzz

test:
	go test ./...

# End-to-end observability smoke: run a traced TCP cluster with the
# introspection server on an ephemeral port and have the process probe
# its own endpoints before exiting: /healthz, /metrics (the expected
# series), /callsites, /links, /buildinfo, /snapshot and /cluster (a
# top blame read from the phase histograms), /traces and
# /traces/<id>?merge=1; and the two Chrome-trace bodies, /trace and
# /traces/<id>?merge=1&format=chrome, each valid JSON with at least one
# X event, a process_name for every pid and no negative ts. No curl or
# fixed port needed.
obs-smoke:
	go run ./cmd/rminode -sends 5 -obs-smoke

# Explain-pipeline smoke: compile every bundled example, emit the
# cormi-explain/1 decision report, and self-validate the schema
# invariants (a record per call site, witnesses on kept cycle checks,
# reuse verdicts on every value).
explain-smoke:
	go run ./cmd/rmic -explain-smoke

# Precision regression gate: run the full compiler over the MiniJP
# corpus (examples/minijp) and diff the per-site verdict matrix — and
# the context-insensitive baseline matrix — against the checked-in
# goldens and the verdict totals of the four measured application
# sketches, then re-prove the sensitivity gain in-process (strictly more
# elided cycle checks and reuse grants than the baseline). A precision
# regression fails; an intended improvement needs a reviewed golden
# update (UPDATE_GOLDEN=1 go test ./internal/harness -run TestVerdictMatrix).
verify-precision:
	go test -count=1 -run 'TestVerdictMatrix|TestPrecisionGain|TestContextBudgetBoundsBlowup|TestAnalysisDeterminism' ./internal/harness

# Mode-matrix gate (DESIGN.md §7): prints the cell count and wall time
# of TestModeMatrix — both chain workloads x six link conditions x five
# optimization levels x three call modes, every cell held to its witness,
# to the answer of the workload's first cell and to the Close-balance
# check. `go test -race ./...` above already ran it under the race
# detector, silently; this plain run is for the line it logs.
verify-matrix:
	go test -count=1 -v -run 'TestModeMatrix' ./internal/harness

# Attribution gate: always-on tail-latency attribution must keep the
# traced hot path within its 0-alloc budget while recording the phase
# histograms a top blame is read from; the log2 histogram merge must
# stay exact under the commutativity / associativity /
# quantile-preservation property tests; the top blame read from the
# phase histograms' sums, on one tracer and merged, must equal the
# per-phase self-time fold kept as its reference
# (trace/attrib_ref_test.go), wait_reply excluded; and the 3-node
# cluster scenario must blame the slow executor's execute phase, with
# a share above one half, through the real HTTP /snapshot -> /cluster
# pull path.
verify-attrib:
	go test -count=1 -run 'TestAttributionSteadyStateAllocs' ./internal/apps/micro
	go test -count=1 -run 'TestMerge|TestTopBlameMatchesSelfTimeReference|TestBlameClassification|TestRunAttribBlamesSlowExecutor' ./internal/metrics ./internal/trace ./internal/harness

# Distributed-tracing gate (DESIGN.md §15): head sampling must be free
# for the calls it does not pick (the armed untraced hot path holds the
# same 0-alloc budget as verify-attrib) and cheap for those it does
# (the sampled path's ceiling is pinned); and the 3-node harness
# scenario must reconstruct every call of its depth-8 sync chains —
# through the real HTTP /traces -> /traces/<id>?peers= pull path — as
# exactly one tree with the topology's span/hop counts, the critical
# paths accounting for the measured wall time.
verify-dtrace:
	go test -count=1 -run 'TestUntracedWithSamplingArmedAllocs|TestSampledPathAllocs' ./internal/apps/micro
	go test -count=1 -run 'TestDTraceChainReconstructsTreePerCall|TestBuildTree' ./internal/harness ./internal/trace

# Analysis-at-scale gate (DESIGN.md §16): the 2200- and 360-function
# generated corpora must analyze inside the wall budget with exactly
# their pinned structure and precision counters (zero context-budget
# fallbacks among them) and their pinned Analysis.Fingerprint. Those
# gates stop at the heap analysis (AnalyzeCorpus in the harness tests); the stage
# after it, core.buildSites with its escape check, is held linear by
# the last line: a whole core.Compile must allocate no more than
# 1.5x per function at 1440 functions than at 360 and no more than 28
# per function at either size, and each of its six stages (the names
# the repo benchmark's ladder uses) stays under its own per-function
# allocation ceiling, so a regression names its stage; no wall clock
# read. The second line runs a test or more in each of its three
# packages: in internal/heap it holds AnalyzeOpts, which solves region
# by region, to the plain single fixpoint over the whole program (the
# oracle in analyze_ref_test.go) and counts the bodies it walks on a
# skewed corpus, holds the ordered NodeSet to the map it replaced, Reach to a
# fixed number of allocations whatever the graph size, and the
# cormi-cost/3 document to its keys; in internal/heap/sched the region
# plan; in internal/heap/gen the corpus generator. The last line also
# holds the front end's first stage, lang.Parse, to the parser it
# replaced (the oracle in parse_ref_test.go): the same AST, positions
# included, on every example, sketch and generated corpus, and the same
# error on every source the robustness tests generate.
verify-analysis:
	go test -count=1 -run 'TestAnalysisCorpusGate' ./internal/harness
	go test -count=1 -run 'TestSingleFixpointAgrees|TestConvergedRegionsStopWalking|TestNodeSet|TestReachAllocations|TestCostDocument|TestBuildPlan|TestSharedStatic|TestSelfRecursion|TestGenerate|TestEdit|TestExtraCall' ./internal/heap ./internal/heap/sched ./internal/heap/gen
	go test -count=1 -run 'TestCompileAllocsLinearInFunctions|TestCompileStageAllocs|TestParseDifferential' ./internal/core ./internal/lang

# Allocation-budget gate: a test that reads testkit.Enabled, itself or
# through a helper of its package, skips or loosens its budget under
# the race detector, so the -race run above never holds it. This runs
# every such test without -race, found by name in the test files as
# fuzz finds Fuzz*, so a new budget test cannot be left out: the rmi
# echo and leaf echo budgets, micro's tiers, the TCP frame path,
# serial's zero-alloc and slab-hint tests, the compiler's stage table,
# the dtrace scenario's bounds and LU's allocations per RMI.
verify-allocs:
	@set -e; for d in $$(grep -rl --include='*_test.go' --exclude-dir=bench 'testkit\.Enabled' . | xargs -n1 dirname | sort -u); do \
		tests=$$(awk '/^func /{f=$$2; sub(/\(.*/,"",f)} \
			p==1 && /testkit\.Enabled/ {u[f]=1} \
			p==2 && f~/^Test/ {if(f in u)t[f]=1; for(h in u)if(h!~/^Test/ && index($$0,h"("))t[f]=1} \
			END{for(f in t)s=s (s?"|":"") f; print s}' p=1 $$d/*_test.go p=2 $$d/*_test.go); \
		echo "go test -count=1 -run '^($$tests)\$$' $$d"; \
		go test -count=1 -run "^($$tests)\$$" $$d; \
	done

# Short native-fuzzing pass over every Fuzz* target of the module,
# found by name in the test files, so a new fuzzer cannot be left out:
# the adversarial decode surfaces (the HELLO handshake decoder, the
# value/reference payload decoder, the call-header codec and its trace
# context), the MiniJP parser and the histogram merge. Each target
# always replays its checked-in seed corpus (testdata/fuzz/) and then
# mutates for a few seconds. Properties: no panics, typed
# ErrMalformedFrame on every rejection, balanced pools; on ASCII
# source, the parser gives the same AST or the same error as the
# reference parser. Longer runs: FUZZTIME=10m make fuzz.
FUZZTIME ?= 5s
fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' --exclude-dir=bench --exclude-dir=testdata '^func Fuzz' . | sort); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "go test -run '^\$$' -fuzz '^$$t\$$' -fuzztime $(FUZZTIME) $$(dirname $$f)"; \
			go test -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) $$(dirname $$f); \
		done; \
	done

# Every Go benchmark in the module. Informational, no gate.
bench:
	go test -bench=. -benchmem -count=5 ./...

# RMI echo round trip per transport: channel, tcp, and tcp-parallel
# (GOMAXPROCS concurrent callers). Informational, no gate; add
# -cpuprofile/-mutexprofile here to profile the TCP frame path.
bench-transport:
	go test -run '^$$' -bench 'BenchmarkTransports' -benchmem -count=3 .

# Codec alone, per plan shape (a 100-node list on a trailing link, a
# 16x16 double[][], a depth-6 binary tree): write and read at
# site+reuse+cycle in steady state (allocs/op 0), and beside them
# class/read, the class baseline's reader with fresh allocation (one
# allocation per slab chunk). ns/op, MB/s and allocs/op. Informational,
# no gate; the serial rung of the measurement ladder and the profiling
# handle for internal/serial.
bench-codec:
	go test -run '^$$' -bench 'BenchmarkPlannedCodec' -benchmem -count=3 ./internal/serial

# Whole compiler (lang, ir, heap, core) cold over generated corpora of
# 360, 1440 and 2200 functions: ns/op, allocs/op and ns/func, which
# should stay flat as the program grows. Informational, no gate (the
# gated forms are TestCompileAllocsLinearInFunctions and
# TestCompileStageAllocs in verify-analysis); the profiling handle for
# the compiler ladder. For the exact allocation-site table (every
# allocation sampled; counts per compile = flat / iterations):
#   go test -run '^$$' -bench 'BenchmarkCompileScaling/funcs=360' -benchtime 100x \
#     -memprofilerate=1 -memprofile /tmp/mem.prof -o /tmp/cormi.test .
#   go tool pprof -sample_index=alloc_objects -top /tmp/cormi.test /tmp/mem.prof
# (-sample_index=alloc_space for bytes; add -cpuprofile for time).
bench-compile:
	go test -run '^$$' -bench 'BenchmarkCompileScaling' -benchmem -count=3 .
