package trace

import (
	"reflect"
	"testing"
)

// backdated opens a caller span whose Start is shifted ns into the
// past, so the close path sees a controlled end-to-end latency without
// sleeping.
func backdated(tr *Tracer, site string, seq, ns int64) *Span {
	sp := tr.StartCaller(site, "m", 0, 1, seq)
	sp.Start = Now() - ns
	return sp
}

func siteAttr(t *testing.T, tr *Tracer, site string) SiteAttribution {
	t.Helper()
	for _, sa := range tr.Attribution() {
		if sa.Site == site {
			return sa
		}
	}
	t.Fatalf("site %q missing from Attribution: %+v", site, tr.Attribution())
	return SiteAttribution{}
}

func blameOf(sa SiteAttribution, phase string) BlamePhase {
	for _, b := range sa.Blame {
		if b.Phase == phase {
			return b
		}
	}
	return BlamePhase{}
}

func TestBlameClassification(t *testing.T) {
	tr := New(Config{RingSize: 16})
	// Two spans dominated by execute, one by serialize. wait_reply is a
	// container over the others and must never win nor contribute self
	// time.
	for i := 0; i < 2; i++ {
		sp := tr.StartCallee("S.x.1", "x", 0, 1, int64(i), 0)
		sp.SetPhase(PhaseExecute, Now(), 5000)
		sp.SetPhase(PhaseDeserialize, Now(), 100)
		sp.End()
	}
	sp := backdated(tr, "S.x.1", 2, 10000)
	sp.SetPhase(PhaseSerialize, Now(), 3000)
	sp.SetPhase(PhaseWaitReply, Now(), 9000)
	sp.End()

	sa := siteAttr(t, tr, "S.x.1")
	if b := blameOf(sa, "execute"); b.Wins != 2 || b.SelfNS != 10000 {
		t.Errorf("execute blame = %+v, want wins 2 self 10000", b)
	}
	if b := blameOf(sa, "serialize"); b.Wins != 1 || b.SelfNS != 3000 {
		t.Errorf("serialize blame = %+v, want wins 1 self 3000", b)
	}
	if b := blameOf(sa, "wait_reply"); b.Wins != 0 || b.SelfNS != 0 {
		t.Errorf("wait_reply blame = %+v, want excluded from blame", b)
	}
	if phase, share := sa.TopBlame(); phase != "execute" || share <= 0.5 {
		t.Errorf("TopBlame = %q %.2f, want execute with majority share", phase, share)
	}
	// Calls counts caller spans only.
	if sa.Calls != 1 {
		t.Errorf("Calls = %d, want 1 (caller spans only)", sa.Calls)
	}
}

func TestExemplarCaptureAdaptiveThreshold(t *testing.T) {
	tr := New(Config{RingSize: 64, ExemplarWarmup: 8, ExemplarRefresh: 8})
	const site = "S.slow.1"
	// Warmup: 8 fast calls (~1µs) arm the threshold at the site's p99.
	for i := 0; i < 8; i++ {
		backdated(tr, site, int64(i), 1000).End()
	}
	sa := siteAttr(t, tr, site)
	if sa.ThresholdNS <= 0 {
		t.Fatalf("threshold not armed after warmup: %+v", sa)
	}
	if tr.Exemplars() != 0 {
		t.Fatalf("fast warmup calls captured %d exemplars", tr.Exemplars())
	}

	// The callee half closes first (same process): it lands in the ring
	// and the slow caller's exemplar must pick it up by (from, seq).
	callee := tr.StartCallee(site, "m", 0, 1, 99, 0)
	callee.SetPhase(PhaseExecute, Now(), 4_500_000)
	callee.End()
	slow := backdated(tr, site, 99, 5_000_000)
	slow.SetPhase(PhaseReplyDeserialize, Now(), 2000)
	slow.End()

	if tr.Exemplars() != 1 {
		t.Fatalf("Exemplars = %d, want 1", tr.Exemplars())
	}
	exs := tr.Slow()
	if len(exs) != 1 {
		t.Fatalf("Slow() returned %d exemplars, want 1", len(exs))
	}
	ex := exs[0]
	if ex.Site != site || ex.Seq != 99 || ex.TotalNS < 4_000_000 {
		t.Errorf("exemplar = %+v, want the seq-99 slow call", ex)
	}
	if ex.ThresholdNS <= 0 || ex.TotalNS <= ex.ThresholdNS {
		t.Errorf("exemplar total %d not past threshold %d", ex.TotalNS, ex.ThresholdNS)
	}
	if len(ex.Spans) < 2 || ex.Spans[1].Kind != KindCallee {
		t.Fatalf("exemplar missing callee half: %+v", ex)
	}
	if ex.Blame != "execute" {
		t.Errorf("exemplar blame = %q, want execute (the 4.5ms callee phase)", ex.Blame)
	}
	if len(ex.Spans) != 2 {
		t.Errorf("exemplar retained %d spans, want caller+callee", len(ex.Spans))
	}
	if sa := siteAttr(t, tr, site); sa.Exemplars != 1 {
		t.Errorf("site Exemplars = %d, want 1", sa.Exemplars)
	}
}

func TestExemplarMinNSKeepsCaptureArmedButSilent(t *testing.T) {
	tr := New(Config{ExemplarWarmup: 4, ExemplarRefresh: 4, ExemplarMinNS: 1 << 60})
	const site = "S.fast.1"
	for i := 0; i < 64; i++ {
		backdated(tr, site, int64(i), 2_000_000).End()
	}
	sa := siteAttr(t, tr, site)
	if sa.ThresholdNS != 1<<60 {
		t.Errorf("threshold = %d, want the 1<<60 floor", sa.ThresholdNS)
	}
	if tr.Exemplars() != 0 || sa.Exemplars != 0 {
		t.Errorf("floored threshold still captured %d exemplars", tr.Exemplars())
	}
}

func TestExemplarRingBounds(t *testing.T) {
	tr := New(Config{ExemplarRing: 2, ExemplarWarmup: 2, ExemplarRefresh: 1 << 40})
	const site = "S.ring.1"
	backdated(tr, site, 0, 1000).End()
	backdated(tr, site, 1, 1000).End() // arms threshold at ~µs scale
	for i := int64(2); i < 7; i++ {
		backdated(tr, site, i, 10_000_000).End()
	}
	if tr.Exemplars() != 5 {
		t.Fatalf("Exemplars = %d, want 5", tr.Exemplars())
	}
	exs := tr.Slow()
	if len(exs) != 2 {
		t.Fatalf("ring holds %d exemplars, want 2", len(exs))
	}
	// Newest first: the last two captures are seq 6 then seq 5.
	if exs[0].Seq != 6 || exs[1].Seq != 5 {
		t.Errorf("Slow() order = seq %d, %d; want 6, 5", exs[0].Seq, exs[1].Seq)
	}
}

func TestAttributionMergeMatchesSingleTracer(t *testing.T) {
	// The same span stream split across two tracers (two "nodes") and
	// merged must equal the stream recorded into one tracer — the
	// histogram-merge exactness lifted to the attribution level. The
	// records are closed directly (not via End, which stamps the wall
	// clock) so both recordings are bit-identical.
	record := func(tr *Tracer, i int64) {
		s := tr.pool.Get().(*Span)
		s.SpanRecord = SpanRecord{
			Site: "S.m.1", Method: "m", From: 0, To: 1, Seq: i,
			Kind: KindCaller, Start: 1000, End: 1000 + 1000*(i+1),
		}
		s.t = tr
		s.SetPhase(PhaseExecute, 1000, 500*(i+1))
		s.SetPhase(PhaseSerialize, 1000, 100)
		tr.close(s)
	}
	one := New(Config{RingSize: 32})
	a := New(Config{RingSize: 32})
	b := New(Config{RingSize: 32})
	for i := int64(0); i < 40; i++ {
		dst := a
		if i%2 == 1 {
			dst = b
		}
		record(one, i)
		record(dst, i)
	}
	merged := MergeAttributions(a.Attribution(), b.Attribution())
	want := one.Attribution()
	// Thresholds may differ (armed from different sub-streams): they
	// merge by max, not sum, so zero them before the deep compare.
	for i := range merged {
		merged[i].ThresholdNS = 0
	}
	for i := range want {
		want[i].ThresholdNS = 0
	}
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged attribution != single-tracer attribution\nmerged: %+v\nwant:   %+v", merged, want)
	}
}

// TestMergeAttributionsCoversEveryField is the drift guard: a fully
// populated SiteAttribution merged alone must come back unchanged. A
// field added to the struct but not to MergeAttributions drops to its
// zero value and fails the DeepEqual; a field added but not populated
// here fails the IsZero sweep, forcing this test to keep pace.
func TestMergeAttributionsCoversEveryField(t *testing.T) {
	sa := SiteAttribution{
		Site:        "S.full.1",
		Calls:       7,
		ThresholdNS: 12345,
		Exemplars:   3,
	}
	sa.Total.Buckets[10] = 7
	sa.Total.Sum = 7000
	sa.Total.Total = 7
	ph := PhaseHist{Phase: "execute"}
	ph.Hist.Buckets[9] = 7
	ph.Hist.Sum = 3500
	ph.Hist.Total = 7
	sa.Phases = []PhaseHist{ph}
	sa.Blame = []BlamePhase{{Phase: "execute", Wins: 7, SelfNS: 3500}}

	v := reflect.ValueOf(sa)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("field %s not populated by this test; update it (and MergeAttributions) for the new field",
				v.Type().Field(i).Name)
		}
	}
	merged := MergeAttributions([]SiteAttribution{sa})
	if len(merged) != 1 || !reflect.DeepEqual(merged[0], sa) {
		t.Fatalf("identity merge dropped a field\nmerged: %+v\nwant:   %+v", merged, sa)
	}

	// Two copies double every summed field and keep the max'd ones.
	doubled := MergeAttributions([]SiteAttribution{sa}, []SiteAttribution{sa})[0]
	if doubled.Calls != 14 || doubled.Total.Total != 14 || doubled.Exemplars != 6 {
		t.Errorf("summed fields wrong after self-merge: %+v", doubled)
	}
	if doubled.ThresholdNS != 12345 {
		t.Errorf("ThresholdNS = %d, want max semantics (12345)", doubled.ThresholdNS)
	}
	if doubled.Blame[0].Wins != 14 || doubled.Blame[0].SelfNS != 7000 {
		t.Errorf("blame not summed: %+v", doubled.Blame)
	}
}

func TestNilTracerAttributionSurface(t *testing.T) {
	var tr *Tracer
	if tr.Attribution() != nil || tr.Slow() != nil || tr.Exemplars() != 0 {
		t.Fatal("nil tracer attribution surface must be empty")
	}
}
