package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.StartCaller("s", "m", 0, 1, 7)
	if sp != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	// Every span method must tolerate the nil receiver.
	sp.BeginPhase(PhaseSerialize)
	sp.EndPhase(PhaseSerialize)
	sp.SetPhase(PhaseTransit, 1, 2)
	sp.AddRetry()
	sp.SetVirtualTransit(5)
	sp.Fail("x")
	sp.End()
	tr.DumpFailure("timeout")
	if got := tr.Attribution(); got != nil {
		t.Fatalf("nil tracer Attribution = %v", got)
	}
}

func TestSpanLifecycleAndHistograms(t *testing.T) {
	tr := New(Config{})
	for i := 0; i < 5; i++ {
		sp := tr.StartCaller("Foo.send.1", "send", 0, 1, int64(i))
		sp.BeginPhase(PhaseSerialize)
		sp.EndPhase(PhaseSerialize)
		sp.SetPhase(PhaseWaitReply, Now(), 1000)
		sp.End()
	}
	if got := tr.SpansStarted(); got != 5 {
		t.Fatalf("SpansStarted = %d, want 5", got)
	}
	sa := siteAttr(t, tr, "Foo.send.1")
	var wait *PhaseHist
	for i := range sa.Phases {
		if sa.Phases[i].Phase == "wait_reply" {
			wait = &sa.Phases[i]
		}
	}
	if wait == nil || wait.Hist.Total != 5 {
		t.Fatalf("wait_reply histogram missing or wrong count: %+v", sa.Phases)
	}
	p50, p99 := wait.Hist.Quantile(0.50), wait.Hist.Quantile(0.99)
	if p50 < 512 || p50 > 2048 {
		t.Errorf("p50 of constant 1000ns = %g, want within its log2 bucket", p50)
	}
	if p99 < p50 {
		t.Errorf("p99 %g < p50 %g", p99, p50)
	}
}

func TestFlightRecorderRingBounds(t *testing.T) {
	tr := New(Config{})
	const pushed = ringSize + 6
	for i := 0; i < pushed; i++ {
		sp := tr.StartCallee("S", "m", 0, 1, int64(i), 0)
		sp.End()
	}
	rec := tr.Recent()
	if len(rec) != ringSize {
		t.Fatalf("ring holds %d records, want %d", len(rec), ringSize)
	}
	// Oldest-first: the ring retains the last ringSize of seq
	// 0..pushed-1.
	for i, r := range rec {
		if want := int64(pushed - ringSize + i); r.Seq != want {
			t.Fatalf("rec[%d].Seq = %d, want %d", i, r.Seq, want)
		}
	}
}

func TestFailureDump(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{FailureDump: &buf})
	sp := tr.StartCaller("Work.go.1", "go", 0, 3, 42)
	sp.AddRetry()
	sp.Fail("rmi: call timed out")
	sp.End()
	tr.DumpFailure("timeout")

	if tr.Failures() != 1 {
		t.Fatalf("Failures = %d, want 1", tr.Failures())
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if parsed.OtherData["reason"] != "timeout" {
		t.Errorf("dump reason = %v, want timeout", parsed.OtherData["reason"])
	}
	out := buf.String()
	for _, want := range []string{"Work.go.1", `"seq":42`, "call timed out"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}

	// One dump per tracer: every later failure is suppressed, so the
	// sink holds one loadable Chrome-trace document.
	buf.Reset()
	tr.DumpFailure("timeout")
	tr.DumpFailure("panic")
	if buf.Len() != 0 {
		t.Errorf("a second dump wrote %d bytes, want none", buf.Len())
	}
}

func TestWriteChromeParses(t *testing.T) {
	tr := New(Config{})
	sp := tr.StartCallee("A.b.1", "b", 2, 5, 9, Now())
	sp.BeginPhase(PhaseExecute)
	sp.EndPhase(PhaseExecute)
	sp.SetVirtualTransit(777)
	sp.End()
	sp = tr.StartCaller("W.fire.1", "fire", 0, 2, 11)
	sp.BeginPhase(PhaseSerialize)
	sp.EndPhase(PhaseSerialize)
	sp.End()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, Local(tr.Recent()), nil); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			PID  int            `json:"pid"`
			TS   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome JSON does not parse: %v", err)
	}
	process := map[int]any{}
	for _, e := range parsed.TraceEvents {
		if e.Name == "process_name" {
			process[e.PID] = e.Args["name"]
		}
	}
	var haveSpan, haveExec, haveCaller, haveSer bool
	for _, e := range parsed.TraceEvents {
		if e.Name == "A.b.1" && e.Ph == "X" && process[e.PID] == "node 5" && e.Cat == "callee" {
			haveSpan = true
		}
		if e.Name == "execute" && e.Ph == "X" {
			haveExec = true
		}
		if e.Name == "W.fire.1" && e.Ph == "X" && process[e.PID] == "node 0" && e.Cat == "caller" {
			haveCaller = true
		}
		if e.Name == "serialize" && e.Ph == "X" {
			haveSer = true
		}
	}
	if !haveSpan || !haveExec || !haveCaller || !haveSer {
		t.Fatalf("callee=%v exec=%v caller=%v serialize=%v, want all; events: %+v",
			haveSpan, haveExec, haveCaller, haveSer, parsed.TraceEvents)
	}
}

// TestSpanPoolRecycles pins the "enabled tracing recycles spans"
// guarantee: steady-state span open/close allocates nothing beyond the
// ring copy.
func TestSpanPoolRecycles(t *testing.T) {
	tr := New(Config{})
	for i := 0; i < 100; i++ { // reach pool steady state
		tr.StartCaller("S", "m", 0, 1, int64(i)).End()
	}
	avg := testing.AllocsPerRun(200, func() {
		sp := tr.StartCaller("S", "m", 0, 1, 1)
		sp.BeginPhase(PhaseSerialize)
		sp.EndPhase(PhaseSerialize)
		sp.End()
	})
	if avg > 0.5 {
		t.Fatalf("traced span lifecycle allocates %.2f/op, want 0", avg)
	}
}
