package harness

import (
	"fmt"
	"time"

	"cormi/internal/model"
	"cormi/internal/rmi"
	"cormi/internal/serial"
	"cormi/internal/stats"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

// Negotiation is what `rmibench -skew` prints last: the counters and
// per-link state of one probe cluster, evidence that the HELLO exchange,
// plan demotion and malformed-frame rejection all fired.
type Negotiation struct {
	stats.Snapshot
	Links []stats.LinkStat
}

// NegotiationProbe runs a minimal two-node mixed-version cluster: node
// 1 advertises skewed fingerprints, a site-compiled echo call crosses
// the link (exercising demotion), and one deliberately malformed frame
// is injected at the transport (exercising the hardened decoder's
// typed rejection). It returns the resulting negotiation evidence.
func NegotiationProbe() (*Negotiation, error) {
	c := rmi.New(2, rmi.WithPlanSkew(1))
	defer c.Close()
	node := c.Registry.MustDefine("ProbeNode", nil, model.Field{Name: "v", Kind: model.FInt})
	np := &serial.NodePlan{Class: node}
	np.Steps = []serial.Step{{Op: serial.OpInt, Field: 0, FieldName: "v"}}
	plan := func(site string) *serial.Plan {
		return &serial.Plan{Site: site, Kind: model.FRef, Root: np}
	}
	ref := export(c, 1, "Echo", "echo", nil, func(x model.Value) model.Value { return x })
	cs := c.MustNewCallSite(rmi.LevelSite, rmi.SiteSpec{
		Name: "probe.echo", Method: "echo",
		ArgPlans: []*serial.Plan{plan("probe.echo")},
		RetPlans: []*serial.Plan{plan("probe.echo.r")},
	})
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
	return &Negotiation{c.Counters.Snapshot(), c.LinkStats()}, nil
}

// FormatNegotiation renders the negotiation section for the text UI.
func FormatNegotiation(r *Negotiation) string {
	return fmt.Sprintf("Negotiation probe: planFallbacks=%d malformedFrames=%d\n", r.PlanFallbacks, r.MalformedFrames) +
		Render([]Column[stats.LinkStat]{
			{"from", -6, "%d", func(l *stats.LinkStat) any { return l.From }},
			{"to", -6, "%d", func(l *stats.LinkStat) any { return l.To }},
			{"version", 9, "%d", func(l *stats.LinkStat) any { return l.Version }},
			{"peerPlans", 10, "%d", func(l *stats.LinkStat) any { return l.PeerPlans }},
			{"demoted", 9, "%d", func(l *stats.LinkStat) any { return l.DemotedClasses }},
			{"fallbacks", 10, "%d", func(l *stats.LinkStat) any { return l.Fallbacks }},
		}, r.Links)
}
