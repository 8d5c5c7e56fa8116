// Version-skew mode: run the paper's workloads across a cluster in
// which one node advertises plan fingerprints from a different program
// version, and verify that HELLO negotiation demotes the affected
// classes to the self-describing encoding — every result stays correct,
// nothing mis-decodes, and the demotions are visible in the fallback
// counters. This is the mixed-version acceptance scenario for the
// versioned wire protocol (DESIGN.md §12).

package harness

import (
	"fmt"
	"strings"
	"time"

	"cormi/internal/apps/lu"
	"cormi/internal/apps/micro"
	"cormi/internal/model"
	"cormi/internal/rmi"
	"cormi/internal/serial"
	"cormi/internal/stats"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

// SkewRow is one (workload, level) outcome under version skew.
type SkewRow struct {
	App     string
	Level   rmi.OptLevel
	Seconds float64
	Stats   stats.Snapshot
	Err     error
}

// SkewReport collects a version-skew run across workloads and levels.
type SkewReport struct {
	SkewNode int
	Rows     []SkewRow
}

// Failed returns the first row-level error, if any.
func (r *SkewReport) Failed() error {
	for _, row := range r.Rows {
		if row.Err != nil {
			return fmt.Errorf("%s @ %s: %w", row.App, row.Level, row.Err)
		}
	}
	return nil
}

// Format renders the report: per row the makespan plus the negotiation
// counters proving the skewed links actually demoted.
func (r *SkewReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Version-skew run: node %d advertises skewed plan fingerprints\n", r.SkewNode)
	fmt.Fprintf(&b, "%-12s %-22s %10s %14s %10s %7s\n",
		"app", "optimization", "seconds", "planFallbacks", "malformed", "result")
	for _, row := range r.Rows {
		result := "ok"
		if row.Err != nil {
			result = "FAIL: " + row.Err.Error()
		}
		fmt.Fprintf(&b, "%-12s %-22s %10.4f %14d %10d %7s\n",
			row.App, row.Level, row.Seconds,
			row.Stats.PlanFallbacks, row.Stats.MalformedFrames, result)
	}
	return b.String()
}

// checkSkewRow verifies the negotiation outcome a row must show: levels
// that compile site plans must have demoted at least one object to the
// class-level encoding (the skew was real and was detected), while
// class mode — already on the universal encoding — must not count
// fallbacks. Malformed-frame rejections would mean a planned frame
// leaked through negotiation, so any count fails the row.
func checkSkewRow(level rmi.OptLevel, s stats.Snapshot) error {
	if s.MalformedFrames != 0 {
		return fmt.Errorf("%d malformed frames under pure version skew", s.MalformedFrames)
	}
	if level == rmi.LevelClass {
		if s.PlanFallbacks != 0 {
			return fmt.Errorf("class mode counted %d plan fallbacks", s.PlanFallbacks)
		}
		return nil
	}
	if s.PlanFallbacks == 0 {
		return fmt.Errorf("no plan fallbacks: skewed link kept using compiled plans")
	}
	return nil
}

// VersionSkew runs the micro benchmarks and the LU kernel at every
// optimization level with skewNode advertising version-skewed plan
// fingerprints, over a fault-free interconnect. Each row verifies the
// workload's correctness witness, exactly-once execution, and the
// negotiation evidence from checkSkewRow.
func VersionSkew(s Scale, skewNode int) (*SkewReport, error) {
	report := &SkewReport{SkewNode: skewNode}
	opts := func() []rmi.Option { return []rmi.Option{rmi.WithPlanSkew(skewNode)} }
	for _, level := range rmi.AllLevels {
		out, err := micro.RunLinkedList(level, s.ListElems, s.ListIters, opts()...)
		if err == nil {
			err = verifyExactlyOnce("LinkedList", out.Executions, int64(s.ListIters))
			if err == nil && out.ElementsSeen != int64(s.ListElems) {
				err = fmt.Errorf("receiver saw %d elements, want %d", out.ElementsSeen, s.ListElems)
			}
			if err == nil {
				err = checkSkewRow(level, out.Stats)
			}
		}
		report.Rows = append(report.Rows, SkewRow{
			App: "LinkedList", Level: level, Seconds: out.Seconds, Stats: out.Stats, Err: err})
	}
	for _, level := range rmi.AllLevels {
		out, err := micro.RunArray(level, s.ArraySize, s.ArrayIters, opts()...)
		if err == nil {
			err = verifyExactlyOnce("Array", out.Executions, int64(s.ArrayIters))
			if err == nil {
				err = checkSkewRow(level, out.Stats)
			}
		}
		report.Rows = append(report.Rows, SkewRow{
			App: "Array", Level: level, Seconds: out.Seconds, Stats: out.Stats, Err: err})
	}
	for _, level := range rmi.AllLevels {
		out, err := lu.Run(level, s.LUN, s.LUBS, s.Nodes, opts()...)
		if err == nil && out.MaxResidual > 1e-6 {
			err = fmt.Errorf("LU residual %g under version skew", out.MaxResidual)
		}
		if err == nil {
			err = checkSkewRow(level, out.Stats)
		}
		report.Rows = append(report.Rows, SkewRow{
			App: "LU", Level: level, Seconds: out.Seconds, Stats: out.Stats, Err: err})
	}
	return report, report.Failed()
}

// NegotiationReport is what `rmibench -skew` prints last: evidence that
// the HELLO exchange, plan demotion and malformed-frame rejection all
// fired in one probe cluster.
type NegotiationReport struct {
	PlanFallbacks   int64
	MalformedFrames int64
	Links           []stats.LinkStat
}

// NegotiationProbe runs a minimal two-node mixed-version cluster: node
// 1 advertises skewed fingerprints, a site-compiled echo call crosses
// the link (exercising demotion), and one deliberately malformed frame
// is injected at the transport (exercising the hardened decoder's
// typed rejection). It returns the resulting negotiation evidence.
func NegotiationProbe() (*NegotiationReport, error) {
	c := rmi.New(2, rmi.WithPlanSkew(1))
	defer c.Close()
	node := c.Registry.MustDefine("ProbeNode", nil, model.Field{Name: "v", Kind: model.FInt})
	np := &serial.NodePlan{Class: node}
	np.Steps = []serial.Step{{Op: serial.OpInt, Field: 0, FieldName: "v"}}
	plan := func(site string) *serial.Plan {
		return &serial.Plan{Site: site, Kind: model.FRef, Root: np}
	}
	ref := c.Node(1).Export(&rmi.Service{
		Name: "Echo",
		Methods: map[string]rmi.Method{
			"echo": func(call *rmi.Call, args []model.Value) []model.Value { return args },
		},
	})
	cs, err := c.NewCallSite(rmi.LevelSite, rmi.SiteSpec{
		Name: "probe.echo", Method: "echo",
		ArgPlans: []*serial.Plan{plan("probe.echo")},
		RetPlans: []*serial.Plan{plan("probe.echo.r")},
	})
	if err != nil {
		return nil, fmt.Errorf("harness: negotiation probe: %w", err)
	}
	for i := 0; i < 32; i++ {
		o := model.New(node)
		o.Set("v", model.Int(int64(i)))
		rets, err := cs.Invoke(c.Node(0), ref, []model.Value{model.Ref(o)})
		if err != nil {
			return nil, fmt.Errorf("harness: negotiation probe echo %d: %w", i, err)
		}
		if got := rets[0].O.Get("v").I; got != int64(i) {
			return nil, fmt.Errorf("harness: negotiation probe echo %d returned %d", i, got)
		}
	}
	if fb := c.Counters.PlanFallbacks.Load(); fb == 0 {
		return nil, fmt.Errorf("harness: negotiation probe: skewed link counted no plan fallbacks")
	}

	// Inject one hostile frame: a CRC-valid call frame whose header is
	// truncated after the message tag. The callee must reject it with
	// the typed malformed counter — not crash, not dedup-cache it.
	m := wire.Get()
	m.AppendByte(wire.MsgCall) // the tag, then nothing: header decode must fail
	m.SealFrame()
	if err := c.Network().Endpoint(0).Send(transport.Packet{To: 1, Payload: m.Detach()}); err != nil {
		return nil, fmt.Errorf("harness: negotiation probe inject: %w", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Counters.MalformedFrames.Load() == 0 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("harness: negotiation probe: malformed frame was not counted")
		}
		time.Sleep(time.Millisecond)
	}
	return &NegotiationReport{
		PlanFallbacks:   c.Counters.PlanFallbacks.Load(),
		MalformedFrames: c.Counters.MalformedFrames.Load(),
		Links:           c.LinkStats(),
	}, nil
}

// FormatNegotiation renders the negotiation section for the text UI.
func FormatNegotiation(r *NegotiationReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Negotiation probe: planFallbacks=%d malformedFrames=%d\n",
		r.PlanFallbacks, r.MalformedFrames)
	fmt.Fprintf(&b, "%-6s %-6s %9s %10s %9s %10s\n", "from", "to", "version", "peerPlans", "demoted", "fallbacks")
	for _, l := range r.Links {
		fmt.Fprintf(&b, "%-6d %-6d %9d %10d %9d %10d\n",
			l.From, l.To, l.Version, l.PeerPlans, l.DemotedClasses, l.Fallbacks)
	}
	return b.String()
}
