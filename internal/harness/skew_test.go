package harness

import (
	"strings"
	"sync"
	"testing"

	"cormi/internal/rmi"
)

// skewRun is the version-skew report, run once for the gate below and
// the renderer golden (report_test.go).
var skewRun = sync.OnceValues(func() (*Report, error) {
	s := TestScale()
	s.ListIters, s.ArrayIters = 10, 10
	s.LUN, s.LUBS = 32, 16
	return VersionSkew(s, 1)
})

// TestVersionSkew is the mixed-version acceptance gate: a cluster with
// one skewed node completes every workload at every level with correct
// results, visible plan fallbacks on planned levels, and none in class
// mode.
func TestVersionSkew(t *testing.T) {
	rep, err := skewRun()
	if err != nil {
		t.Fatalf("version skew run failed: %v\n%s", err, rep.Format())
	}
	if len(rep.Rows) != 3*len(rmi.AllLevels) {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), 3*len(rmi.AllLevels))
	}
	if !strings.Contains(rep.Format(), "Version-skew run") {
		t.Fatal("report header missing")
	}
}

// TestNegotiationProbe checks the rmibench negotiation section end to
// end: fallbacks counted, the injected malformed frame rejected and
// counted, and both directed links reporting demoted classes.
func TestNegotiationProbe(t *testing.T) {
	rep, err := NegotiationProbe()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PlanFallbacks == 0 {
		t.Error("no plan fallbacks recorded")
	}
	if rep.MalformedFrames == 0 {
		t.Error("injected malformed frame not counted")
	}
	var sawDemoted bool
	for _, l := range rep.Links {
		if l.Version != 1 {
			t.Errorf("link %d->%d negotiated version %d, want 1", l.From, l.To, l.Version)
		}
		if l.DemotedClasses > 0 {
			sawDemoted = true
		}
	}
	if !sawDemoted {
		t.Errorf("no link reports demoted classes: %+v", rep.Links)
	}
	out := FormatNegotiation(rep)
	if !strings.Contains(out, "Negotiation probe") {
		t.Fatalf("bad format output:\n%s", out)
	}
}
